package store

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/clock"
)

// Leases is one process's handle on the file-lease protocol that decides
// which of several processes sharing a directory computes a unit. Store
// leases (leases/<key>.lease) and work-queue claims (workq/claims/) are
// both instances of it:
//
//   - Acquire creates the lease file with O_CREATE|O_EXCL and writes the
//     body "pid host [worker]"; exactly one creator wins.
//   - A held lease is stale, and may be broken, when its file is gone or
//     unreadable, when its mtime is older than the TTL, or when it names
//     a pid on this host that no longer answers signal 0. A body with
//     fewer than two fields, an unparseable pid, or a foreign or unknown
//     host leaves the TTL as the only authority: a pid from another host
//     means nothing here.
//   - A stale lease is removed and the exclusive create retried once.
//   - Renew pushes the mtime forward; Release removes the file, best
//     effort (an unremovable lease ages out).
//
// The body is advisory; correctness rests on O_EXCL creation alone.
type Leases struct {
	fsys      FS
	now       clock.Clock
	ttl       time.Duration
	alive     func(pid int) bool
	host      string
	body      string
	takeovers atomic.Uint64
}

// NewLeases returns a lease handle whose leases hold for ttl without
// renewal. Nil fsys, now and alive mean the real filesystem, the system
// clock and a signal-0 probe; an empty host means os.Hostname, and a
// failed lookup leaves it unknown, which degrades every probe to the TTL
// (correct, just slower). A non-empty worker is appended to the body for
// humans reading a crashed sweep's directory.
func NewLeases(fsys FS, ttl time.Duration, now clock.Clock, alive func(pid int) bool, host, worker string) *Leases {
	if fsys == nil {
		fsys = OS
	}
	if now == nil {
		now = clock.System
	}
	if alive == nil {
		alive = processAlive
	}
	if host == "" {
		host, _ = os.Hostname()
	}
	body := fmt.Sprintf("%d %s", os.Getpid(), host)
	if worker != "" {
		body += " " + worker
	}
	return &Leases{fsys: fsys, now: now, ttl: ttl, alive: alive, host: host, body: body + "\n"}
}

// TTL returns how long a lease holds without renewal.
func (l *Leases) TTL() time.Duration { return l.ttl }

// Takeovers counts stale leases this handle has broken.
func (l *Leases) Takeovers() uint64 { return l.takeovers.Load() }

// Acquire tries to create the lease at path exclusively, breaking a stale
// one and retrying once. false without error means a live owner holds it.
func (l *Leases) Acquire(path string) (bool, error) {
	for attempt := 0; attempt < 2; attempt++ {
		f, err := l.fsys.OpenExcl(path)
		if err == nil {
			_, _ = f.Write([]byte(l.body))
			_ = f.Sync()
			if err := f.Close(); err != nil {
				_ = l.fsys.Remove(path)
				return false, fmt.Errorf("store: write lease %s: %w", path, err)
			}
			return true, nil
		}
		if !errors.Is(err, fs.ErrExist) {
			return false, fmt.Errorf("store: acquire lease %s: %w", path, err)
		}
		if !l.stale(path) {
			return false, nil
		}
		// Concurrent breakers may both Remove; exactly one OpenExcl then
		// wins.
		l.takeovers.Add(1)
		if err := l.fsys.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return false, fmt.Errorf("store: break stale lease %s: %w", path, err)
		}
	}
	return false, nil
}

// stale applies the staleness rule (see Leases) to the lease at path.
func (l *Leases) stale(path string) bool {
	info, err := l.fsys.Stat(path)
	if err != nil {
		return true
	}
	if l.now().Sub(info.ModTime()) > l.ttl {
		return true
	}
	data, err := l.fsys.ReadFile(path)
	if err != nil {
		return true
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return false
	}
	// Fields are never empty, so an unknown local host ("") is foreign to
	// every lease.
	pid, err := strconv.Atoi(fields[0])
	if err != nil || pid <= 0 || fields[1] != l.host {
		return false
	}
	return !l.alive(pid)
}

// Renew refreshes the lease's mtime by appending to it, so the TTL counts
// from now. The appended bytes are inert.
func (l *Leases) Renew(path string) error {
	f, err := l.fsys.OpenAppend(path)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte("hb\n")); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// Release removes the lease at path, best effort.
func (l *Leases) Release(path string) { _ = l.fsys.Remove(path) }

// processAlive probes pid with signal 0, the conventional same-host
// liveness check. FindProcess never fails on unix; the signal does.
func processAlive(pid int) bool {
	p, err := os.FindProcess(pid)
	if err != nil {
		return false
	}
	return p.Signal(syscall.Signal(0)) == nil
}
