package store

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
)

// TestLeaseStalenessRule walks every row of the staleness rule, for bodies
// in both on-disk formats ("pid host" from store leases, "pid host worker"
// plus heartbeat lines from work-queue claims). Acquire must agree with
// the rule: it breaks and wins a stale lease, and loses a held one.
func TestLeaseStalenessRule(t *testing.T) {
	t.Parallel()

	const absent = "\x00absent"
	cases := []struct {
		name  string
		body  string // absent: no file; "/": a directory (unreadable)
		aged  bool   // clock past the TTL
		host  string // the checker's hostname; "" is unknown
		alive bool
		stale bool
	}{
		{"vanished", absent, false, "hostA", true, true},
		{"unreadable", "/", false, "hostA", true, true},
		{"ttl expired, foreign host, live pid", "999999 hostB\n", true, "hostA", true, true},
		{"ttl expired, torn body", "", true, "hostA", true, true},
		{"empty body", "", false, "hostA", false, false},
		{"whitespace body", " \n", false, "hostA", false, false},
		{"unparseable pid", "not-a-pid hostA\n", false, "hostA", false, false},
		{"zero pid", "0 hostA\n", false, "hostA", false, false},
		{"pid-only body", "999999\n", false, "hostA", false, false},
		{"foreign host, dead pid", "999999 hostB\n", false, "hostA", false, false},
		{"unknown local hostname", "999999 hostA\n", false, "", false, false},
		{"unknown local hostname, empty lease host", "999999 \n", false, "", false, false},
		{"same host, dead pid (pid host)", "999999 hostA\n", false, "hostA", false, true},
		{"same host, dead pid (pid host worker)", "999999 hostA w-1\nhb\nhb\n", false, "hostA", false, true},
		{"same host, live pid (pid host)", "999999 hostA\n", false, "hostA", true, false},
		{"same host, live pid (pid host worker)", "999999 hostA w-1\nhb\n", false, "hostA", true, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			path := filepath.Join(t.TempDir(), "unit.lease")
			switch tc.body {
			case absent:
			case "/":
				if err := os.Mkdir(path, 0o755); err != nil {
					t.Fatal(err)
				}
			default:
				if err := os.WriteFile(path, []byte(tc.body), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			now := clock.System
			if tc.aged {
				now = clock.Fixed(time.Now().Add(storeLeaseTTL + time.Minute))
			}
			alive := func(int) bool { return tc.alive }
			l := NewLeases(nil, storeLeaseTTL, now, alive, "hostA", "")
			l.host = tc.host // "" stands for a failed os.Hostname lookup
			if got := l.stale(path); got != tc.stale {
				t.Fatalf("stale = %v, want %v", got, tc.stale)
			}
			ok, err := l.Acquire(path)
			if err != nil {
				t.Fatalf("acquire: %v", err)
			}
			if ok != tc.stale {
				t.Errorf("acquire = %v, want %v", ok, tc.stale)
			}
			wantTakeovers := uint64(0)
			if tc.stale && tc.body != absent {
				wantTakeovers = 1
			}
			if l.Takeovers() != wantTakeovers {
				t.Errorf("takeovers = %d, want %d", l.Takeovers(), wantTakeovers)
			}
		})
	}
}

// TestLeaseBodyFormats: a fresh lease carries "pid host" without a worker
// and "pid host worker" with one.
func TestLeaseBodyFormats(t *testing.T) {
	t.Parallel()

	dir := t.TempDir()
	for worker, want := range map[string]string{
		"":     fmt.Sprintf("%d hostA\n", os.Getpid()),
		"w-17": fmt.Sprintf("%d hostA w-17\n", os.Getpid()),
	} {
		path := filepath.Join(dir, "w"+worker+".lease")
		if ok, err := NewLeases(nil, storeLeaseTTL, nil, nil, "hostA", worker).Acquire(path); err != nil || !ok {
			t.Fatalf("acquire: ok=%v err=%v", ok, err)
		}
		if got, _ := os.ReadFile(path); string(got) != want {
			t.Errorf("worker %q: body %q, want %q", worker, got, want)
		}
	}
}

// TestLeaseTakeoverOfSIGKilledOwner is the regression test for the crash
// the lease protocol exists to survive: a real subprocess writes its pid
// into a lease and is SIGKILLed, and the default signal-0 probe — no
// injected Alive — detects the death and lets the takeover proceed.
func TestLeaseTakeoverOfSIGKilledOwner(t *testing.T) {
	t.Parallel()

	s := openTestStore(t, DiskOptions{})
	ctx := context.Background()
	k := testKey("cfg", 41)

	cmd := exec.Command("sleep", "60")
	if err := cmd.Start(); err != nil {
		t.Skipf("cannot start subprocess: %v", err)
	}
	pid := cmd.Process.Pid
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	// Reap the child: a zombie still answers signal 0, so without the Wait
	// the probe would see the owner as alive.
	_ = cmd.Wait()

	lease := fmt.Sprintf("%d %s\n", pid, s.leases.host)
	if err := os.WriteFile(s.leasePath(k), []byte(lease), 0o644); err != nil {
		t.Fatal(err)
	}
	res, origin, err := s.GetOrCompute(ctx, k, func() (*core.Result, error) {
		return testResult(t), nil
	})
	if err != nil || res == nil || origin != OriginComputed {
		t.Fatalf("takeover of SIGKILLed owner's lease: origin=%v err=%v", origin, err)
	}
	if st := s.Stats(); st.LeaseTakeovers != 1 {
		t.Errorf("takeovers = %d, want 1", st.LeaseTakeovers)
	}
}

// TestLeaseAcquireRaceOneWinner: concurrent acquirers of one lease resolve
// to exactly one owner — O_EXCL is the arbiter.
func TestLeaseAcquireRaceOneWinner(t *testing.T) {
	t.Parallel()

	path := filepath.Join(t.TempDir(), "unit.claim")
	const racers = 8
	wins := make(chan bool, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ok, err := NewLeases(nil, 30*time.Second, nil, nil, "", fmt.Sprintf("racer-%d", i)).Acquire(path)
			if err != nil {
				t.Errorf("racer %d: %v", i, err)
			}
			wins <- ok
		}(i)
	}
	wg.Wait()
	close(wins)
	won := 0
	for ok := range wins {
		if ok {
			won++
		}
	}
	if won != 1 {
		t.Fatalf("%d racers won the lease, want exactly 1", won)
	}
}

// TestLeaseRenewPushesMtimeForward: renewal moves the mtime to now, so a
// lease that had aged past the TTL is fresh again for as long as its owner
// keeps renewing.
func TestLeaseRenewPushesMtimeForward(t *testing.T) {
	t.Parallel()

	path := filepath.Join(t.TempDir(), "unit.claim")
	// Foreign hostnames so staleness is decided by the TTL alone.
	owner := NewLeases(nil, time.Minute, nil, nil, "elsewhere", "owner")
	if ok, err := owner.Acquire(path); err != nil || !ok {
		t.Fatalf("acquire: ok=%v err=%v", ok, err)
	}
	aged := time.Now().Add(-time.Hour)
	if err := os.Chtimes(path, aged, aged); err != nil {
		t.Fatal(err)
	}
	breaker := NewLeases(nil, time.Minute, nil, func(int) bool { return false }, "breaker", "")
	if !breaker.stale(path) {
		t.Fatal("lease aged past the TTL not seen as stale")
	}
	if err := owner.Renew(path); err != nil {
		t.Fatalf("renew: %v", err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !info.ModTime().After(aged.Add(30 * time.Minute)) {
		t.Errorf("renewal left the mtime at %v", info.ModTime())
	}
	if breaker.stale(path) {
		t.Error("renewed lease still seen as stale")
	}
}
