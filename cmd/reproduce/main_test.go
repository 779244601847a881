package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRejectsBadFlagsBeforeWriting pins that flag validation happens
// before the report file is created: a typo must leave an existing
// report byte-unchanged.
func TestRejectsBadFlagsBeforeWriting(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"unknown fig", []string{"-fig", "typo"}, `unknown figure "typo"`},
		{"unknown scale", []string{"-scale", "paper"}, `unknown scale "paper"`},
		{"unknown flag", []string{"-no-such-flag"}, "flag provided but not defined"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "report.md")
			const prior = "prior report\n"
			if err := os.WriteFile(out, []byte(prior), 0o644); err != nil {
				t.Fatal(err)
			}
			err := run(append([]string{"-out", out}, tc.args...), io.Discard, io.Discard)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%q) error = %v, want it to mention %q", tc.args, err, tc.want)
			}
			got, rerr := os.ReadFile(out)
			if rerr != nil {
				t.Fatal(rerr)
			}
			if string(got) != prior {
				t.Fatalf("run(%q) rewrote the existing report to %q", tc.args, got)
			}
		})
	}
}

// TestSmallReportMatchesCommitted regenerates `reproduce -scale small`
// and compares it with the committed report.md, line by line, except
// the trailing wall-clock line, which is host time.
func TestSmallReportMatchesCommitted(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates the full small-scale report")
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "report.md"))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run([]string{"-scale", "small", "-out", "-"}, &got, io.Discard); err != nil {
		t.Fatal(err)
	}
	gotLines := stripWallClock(t, got.String())
	wantLines := stripWallClock(t, string(want))
	if len(gotLines) != len(wantLines) {
		t.Errorf("report has %d lines, committed report.md has %d", len(gotLines), len(wantLines))
	}
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("report.md line %d:\n got  %q\n want %q\n(regenerate with `go run ./cmd/reproduce -scale small` if the change is intended)",
				i+1, gotLines[i], wantLines[i])
		}
	}
}

// stripWallClock splits a report into lines and drops its final
// "wall-clock:" line, failing if the report does not end with one.
func stripWallClock(t *testing.T, report string) []string {
	t.Helper()
	lines := strings.Split(strings.TrimSuffix(report, "\n"), "\n")
	if n := len(lines); n == 0 || !strings.HasPrefix(lines[n-1], "wall-clock: ") {
		t.Fatalf("report does not end with a wall-clock line: %q", lines[len(lines)-1])
	}
	return lines[:len(lines)-1]
}
