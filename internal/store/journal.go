package store

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"sync"
)

// The sweep journal is an append-only JSONL log of completed
// (fingerprint, seed) units, one record per line, written next to the
// store's objects. It gives a resumed sweep an exact account of prior
// progress — the objects themselves are content-addressed and say nothing
// about which sweep produced them — and it gives a human a greppable
// record of what a killed run had finished.
//
// Durability discipline: each record is a single Write of one full line
// followed by fsync, so a crash can tear at most the final line. Replay
// validates every line (JSON shape, field ranges, per-record CRC32C) and
// stops at the first invalid one, treating it as the torn tail; records
// past a torn line are unreachable but their results still live in the
// store, so nothing is lost but bookkeeping.

// journalVersion versions the record shape.
const journalVersion = 1

// journalRecord is one completed unit. CRC is the Castagnoli checksum of
// "fp:seed", making a truncated or spliced line detectable even when it
// still parses as JSON.
type journalRecord struct {
	V    int    `json:"v"`
	FP   string `json:"fp"`
	Seed string `json:"seed"`
	CRC  uint32 `json:"crc"`
}

// Journal is an open sweep journal. Appends are serialized and durable;
// the journal is safe for concurrent use.
type Journal struct {
	mu   sync.Mutex
	fsys FS
	f    File
	path string
}

// OpenJournal opens the journal at path for appending and replays its
// valid prefix, returning the completed units in append order (duplicates
// preserved). With resume false an existing journal is discarded first —
// the bookkeeping of a finished or abandoned sweep, not of this one.
func OpenJournal(fsys FS, path string, resume bool) (*Journal, []Key, error) {
	if fsys == nil {
		fsys = OS
	}
	var done []Key
	if resume {
		done = replayJournal(fsys, path)
	} else if err := removeIfPresent(fsys, path); err != nil {
		return nil, nil, fmt.Errorf("store: reset journal %s: %w", path, err)
	}
	f, err := fsys.OpenAppend(path)
	if err != nil {
		return nil, nil, fmt.Errorf("store: open journal %s: %w", path, err)
	}
	return &Journal{fsys: fsys, f: f, path: path}, done, nil
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Append records one completed unit: marshal, single write, fsync. A
// cancelled context discards the append before it reaches the file.
func (j *Journal) Append(ctx context.Context, k Key) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	rec := journalRecord{
		V:    journalVersion,
		FP:   hex.EncodeToString(k.Sum[:]),
		Seed: fmt.Sprintf("%016x", k.Seed),
	}
	rec.CRC = journalCRC(rec.FP, rec.Seed)
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	n, err := j.f.Write(line)
	if err == nil && n < len(line) {
		err = fmt.Errorf("store: short journal write: %d of %d bytes", n, len(line))
	}
	if err != nil {
		return err
	}
	return j.f.Sync()
}

// Close closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// replayJournal parses the journal's valid prefix. A missing file is an
// empty journal; the first malformed line (torn tail after a crash) ends
// the replay.
func replayJournal(fsys FS, path string) []Key {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil
	}
	var done []Key
	for len(data) > 0 {
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			// No trailing newline: a torn final record.
			break
		}
		k, ok := parseJournalLine(line)
		if !ok {
			break
		}
		done = append(done, k)
	}
	return done
}

// parseJournalLine validates one record end to end.
func parseJournalLine(line []byte) (Key, bool) {
	var rec journalRecord
	if err := json.Unmarshal(line, &rec); err != nil || rec.V != journalVersion {
		return Key{}, false
	}
	if rec.CRC != journalCRC(rec.FP, rec.Seed) {
		return Key{}, false
	}
	sum, err := hex.DecodeString(rec.FP)
	if err != nil || len(sum) != len(Key{}.Sum) {
		return Key{}, false
	}
	seed, ok := ParseSeed(rec.Seed)
	if !ok {
		return Key{}, false
	}
	k := Key{Seed: seed}
	copy(k.Sum[:], sum)
	return k, true
}

func journalCRC(fp, seed string) uint32 {
	return crc32.Checksum([]byte(fp+":"+seed), crcTable)
}

// removeIfPresent deletes path, tolerating its absence.
func removeIfPresent(fsys FS, path string) error {
	err := fsys.Remove(path)
	if err == nil || errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	return err
}
