package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// TestKillResumeByteIdentical is the crash-consistency acceptance test for
// the persistent store: a sweep killed with SIGKILL mid-run and rerun with
// -resume must produce byte-identical CSVs to an uninterrupted, uncached
// reference run. It builds the real binary and kills the real process so
// the whole stack — atomic object writes, journal replay, lease takeover of
// the dead process's in-flight units — is exercised, not a simulation of it.
func TestKillResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess integration test; skipped in -short")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH; cannot build subprocess binary")
	}

	tmp := t.TempDir()
	bin := filepath.Join(tmp, "mvfigures")
	build := exec.Command(goBin, "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	// Reduced but multi-study workload: enough units that SIGKILL lands
	// mid-sweep, small enough to run three times in CI.
	workload := []string{"-quiet", "-reps", "2", "-grid", "20", "-scale", "20", "-seed", "1", "-jobs", "2"}

	refDir := filepath.Join(tmp, "ref")
	ref := exec.Command(bin, append(workload, "-nocache", "-out", refDir)...)
	if out, err := ref.CombinedOutput(); err != nil {
		t.Fatalf("reference run: %v\n%s", err, out)
	}

	storeDir := filepath.Join(tmp, "store")
	outDir := filepath.Join(tmp, "out")
	victim := exec.Command(bin, append(workload, "-storedir", storeDir, "-out", outDir)...)
	var victimOut bytes.Buffer
	victim.Stdout = &victimOut
	victim.Stderr = &victimOut
	if err := victim.Start(); err != nil {
		t.Fatalf("start victim: %v", err)
	}
	exited := make(chan struct{})
	go func() {
		_ = victim.Wait() // expected to report the SIGKILL (or success if it won the race)
		close(exited)
	}()

	// Kill once the journal shows progress, so some units are durable and
	// others in flight. If the sweep finishes first the kill is moot and
	// the resume degenerates to a pure warm rerun — still a valid check.
	journal := filepath.Join(storeDir, "journal.jsonl")
	if !pollUntil(func() bool { return journalLines(journal) >= 5 }, exited, 5*time.Millisecond) {
		t.Logf("journal only reached %d lines before the victim exited or the deadline passed; killing anyway",
			journalLines(journal))
	}
	_ = victim.Process.Kill()
	<-exited
	t.Logf("killed after %d journal lines", journalLines(journal))

	resume := exec.Command(bin, append(workload, "-storedir", storeDir, "-resume", "-out", outDir)...)
	out, err := resume.CombinedOutput()
	if err != nil {
		t.Fatalf("resume run: %v\n%s", err, out)
	}
	t.Logf("resume output:\n%s", out)

	refs, err := filepath.Glob(filepath.Join(refDir, "*.csv"))
	if err != nil || len(refs) == 0 {
		t.Fatalf("reference CSVs: %v (found %d)", err, len(refs))
	}
	for _, refPath := range refs {
		name := filepath.Base(refPath)
		want, err := os.ReadFile(refPath)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(outDir, name))
		if err != nil {
			t.Errorf("%s missing after resume: %v", name, err)
			continue
		}
		if !bytes.Equal(want, got) {
			t.Errorf("%s differs between uncached reference and kill+resume run", name)
		}
	}
}

// journalLines counts complete journal records; a missing file is zero.
func journalLines(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	return bytes.Count(data, []byte("\n"))
}

// pollUntil checks cond every tick until it holds, the watched child exits
// (exited closes), or a 2-minute backstop passes. It reports whether cond
// held; once the child has exited cond is not evaluated again.
func pollUntil(cond func() bool, exited <-chan struct{}, tick time.Duration) bool {
	backstop := time.After(2 * time.Minute)
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for !cond() {
		select {
		case <-exited:
			return false
		case <-backstop:
			return false
		case <-ticker.C:
		}
	}
	return true
}
