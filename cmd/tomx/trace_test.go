package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// traceEvents is the fixture stream: two runs, zero-valued ids, a learned
// bit of 0, and a pre-destination gate — the corners decoding must not
// lose.
var traceEvents = []obs.Event{
	{Cycle: 10, Kind: obs.EvCandidate, Run: "LIB/ctrl-tmap", SM: 0, PC: 3},
	{Cycle: 12, Kind: obs.EvGate, Run: "LIB/ctrl-tmap", SM: 0, Stack: -1, PC: 3, Reason: "cond"},
	{Cycle: 40, Kind: obs.EvSend, Run: "LIB/ctrl-tmap", SM: 0, Stack: 0, PC: 3, Bytes: 160},
	{Cycle: 90, Kind: obs.EvAck, Run: "LIB/ctrl-tmap", SM: 64, Stack: 0, PC: 3, Bytes: 96},
	{Cycle: 95, Kind: obs.EvLearnEnd, Run: "BFS/ctrl-tmap", N: 128, Bit: obs.BitValue(0)},
	{Cycle: 99, Kind: obs.EvSend, Run: "BFS/ctrl-tmap", SM: 2, Stack: 3, PC: 7, Bytes: 160},
}

// encode writes traceEvents through one of the two codecs: the binary sink
// every producer uses, or the JSONL sink the decoder writes through.
func encode(t *testing.T, newSink func(io.Writer) obs.EventSink) []byte {
	t.Helper()
	var buf bytes.Buffer
	sink := newSink(&buf)
	for _, ev := range traceEvents {
		sink.Emit(ev)
	}
	if err := obs.Flush(sink); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func binarySink(w io.Writer) obs.EventSink { return obs.NewBinarySink(w) }
func jsonlSink(w io.Writer) obs.EventSink  { return obs.NewJSONLSink(w) }

// runTool invokes the trace mode's body with stdin input and returns stdout.
func runTool(t *testing.T, args []string, stdin []byte) []byte {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := traceMode(args, bytes.NewReader(stdin), &stdout, &stderr); err != nil {
		t.Fatalf("traceMode(%v): %v\n%s", args, err, stderr.String())
	}
	return stdout.Bytes()
}

// TestConvertBinaryToJSONL: decoding a binary trace must reproduce the
// native JSONL encoding byte for byte, via both stdin and a file argument.
func TestConvertBinaryToJSONL(t *testing.T) {
	bin := encode(t, binarySink)
	want := encode(t, jsonlSink)

	if got := runTool(t, []string{"-q"}, bin); !bytes.Equal(got, want) {
		t.Errorf("stdin conversion differs from native JSONL:\n got %s\nwant %s", got, want)
	}

	in := filepath.Join(t.TempDir(), "trace.bin")
	if err := os.WriteFile(in, bin, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := runTool(t, []string{"-q", in}, nil); !bytes.Equal(got, want) {
		t.Errorf("file conversion differs from native JSONL")
	}
}

// TestConvertEmptyTrace: a header-only binary trace decodes to an empty
// JSONL stream.
func TestConvertEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := obs.NewBinarySink(&buf).Flush(); err != nil {
		t.Fatal(err)
	}
	if got := runTool(t, []string{"-q"}, buf.Bytes()); len(got) != 0 {
		t.Errorf("empty binary trace decoded to %q", got)
	}
}

// TestFilterFlags: -kind, -run, and -stack must conjoin, and -stack -1
// selects pre-destination gates.
func TestFilterFlags(t *testing.T) {
	bin := encode(t, binarySink)
	lines := func(out []byte) []string {
		s := strings.TrimSuffix(string(out), "\n")
		if s == "" {
			return nil
		}
		return strings.Split(s, "\n")
	}

	if got := lines(runTool(t, []string{"-q", "-kind", "send,ack"}, bin)); len(got) != 3 {
		t.Errorf("-kind send,ack kept %d events, want 3", len(got))
	}
	if got := lines(runTool(t, []string{"-q", "-run", "BFS/ctrl-tmap"}, bin)); len(got) != 2 {
		t.Errorf("-run kept %d events, want 2", len(got))
	}
	got := lines(runTool(t, []string{"-q", "-stack", "-1"}, bin))
	if len(got) != 1 || !strings.Contains(got[0], `"kind":"gate"`) {
		t.Errorf("-stack -1 kept %v, want the cond gate", got)
	}
	got = lines(runTool(t, []string{"-q", "-kind", "send", "-run", "LIB/ctrl-tmap", "-stack", "0"}, bin))
	if len(got) != 1 || !strings.Contains(got[0], `"cycle":40`) {
		t.Errorf("conjoined filters kept %v, want the cycle-40 send", got)
	}
}

// TestTraceModeErrors: bad flags and inputs must surface as errors, not
// panics.
func TestTraceModeErrors(t *testing.T) {
	var out bytes.Buffer
	cases := [][]string{
		{"-stack", "two"},                             // non-numeric stack id
		{"a.trace", "b.trace"},                        // more than one input
		{filepath.Join(t.TempDir(), "missing.trace")}, // unreadable input
	}
	for _, args := range cases {
		if err := traceMode(args, strings.NewReader(""), &out, &out); err == nil {
			t.Errorf("traceMode(%v) succeeded, want error", args)
		}
	}
	// Truncated binary input: magic parses, first record is cut off.
	bin := encode(t, binarySink)
	if err := traceMode([]string{"-q"}, bytes.NewReader(bin[:len(bin)-3]), &out, &out); err == nil {
		t.Error("truncated binary input must fail")
	}
	// JSONL input: every producer writes binary, so the decoder refuses it
	// at the magic rather than guessing.
	err := traceMode([]string{"-q"}, bytes.NewReader(encode(t, jsonlSink)), &out, &out)
	if err == nil || !strings.Contains(err.Error(), "not a binary trace") {
		t.Errorf("JSONL input: err = %v, want the bad-magic error", err)
	}
}
