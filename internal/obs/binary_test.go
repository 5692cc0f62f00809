package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// collectBinary encodes events with a BinarySink and returns the bytes.
func collectBinary(t testing.TB, events []Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	sink := NewBinarySink(&buf)
	for _, ev := range events {
		sink.Emit(ev)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// collectJSONL encodes events with a JSONLSink and returns the bytes.
func collectJSONL(t *testing.T, events []Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	for _, ev := range events {
		sink.Emit(ev)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeBinary reads every event back from a binary trace.
func decodeBinary(t testing.TB, data []byte) []Event {
	t.Helper()
	r, err := NewBinaryReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var out []Event
	for {
		ev, err := r.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("event %d: %v", len(out), err)
		}
		out = append(out, ev)
	}
}

// TestBinaryZeroFieldsRoundTrip is the format-level regression for the
// omitempty bug: SM 0, stack 0, PC 0, and learned bit 0 are legitimate
// values and must survive the binary encoding exactly, distinguishable
// from -1 ("no destination" / any real id) and from nil ("no bit").
func TestBinaryZeroFieldsRoundTrip(t *testing.T) {
	events := []Event{
		{Cycle: 0, Kind: EvSend, SM: 0, Stack: 0, PC: 0, Bytes: 160},
		{Cycle: 5, Kind: EvGate, SM: 0, Stack: -1, PC: 0, Reason: "nodest"},
		{Cycle: 9, Kind: EvLearnEnd, N: 128, Bit: BitValue(0)},
		{Cycle: 9, Kind: EvLearnEnd, N: 0}, // no bit learned: nil
		{Cycle: 12, Kind: EvAck, SM: 3, Stack: 0, PC: 7, Bytes: 96},
	}
	got := decodeBinary(t, collectBinary(t, events))
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, events)
	}
	if got[2].Bit == nil || *got[2].Bit != 0 {
		t.Errorf("learned bit 0 did not survive: %v", got[2].Bit)
	}
	if got[3].Bit != nil {
		t.Errorf("nil bit became %d", *got[3].Bit)
	}
	if got[1].Stack != -1 {
		t.Errorf("no-destination stack = %d, want -1", got[1].Stack)
	}
}

// TestJSONLZeroFieldsUnambiguous is the encoding-level regression for the
// satellite bugfix: a learn_end with learned bit 0 and a send to stack 0
// must round-trip through JSONLSink with the fields explicitly present.
func TestJSONLZeroFieldsUnambiguous(t *testing.T) {
	events := []Event{
		{Cycle: 3, Kind: EvSend, SM: 0, Stack: 0, PC: 0, Bytes: 160},
		{Cycle: 8, Kind: EvLearnEnd, N: 64, Bit: BitValue(0)},
		{Cycle: 8, Kind: EvLearnEnd, N: 0}, // closed without a bit
	}
	data := collectJSONL(t, events)
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d, want 3", len(lines))
	}
	for _, want := range []string{`"sm":0`, `"stack":0`, `"pc":0`} {
		if !strings.Contains(lines[0], want) {
			t.Errorf("send line %s lacks %s", lines[0], want)
		}
	}
	if !strings.Contains(lines[1], `"bit":0`) {
		t.Errorf("learn_end line %s lacks \"bit\":0", lines[1])
	}
	if strings.Contains(lines[2], `"bit"`) {
		t.Errorf("bit-less learn_end must omit the field: %s", lines[2])
	}
	var got []Event
	dec := json.NewDecoder(bytes.NewReader(data))
	for dec.More() {
		var ev Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		got = append(got, ev)
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("JSONL round trip mismatch:\n got %+v\nwant %+v", got, events)
	}
}

// randomEvents builds a deterministic pseudo-random stream that exercises
// the codec's corners: zero values everywhere, negative sentinels, nil and
// zero bits, interleaved multi-run labels, and non-monotone cycles (as a
// merged parallel trace produces).
func randomEvents(rng *rand.Rand, n int) []Event {
	kinds := []string{EvCandidate, EvGate, EvSend, EvSpawn, EvAck, EvFinish,
		EvLearnEnd, EvTraceSampled, "custom_kind"}
	runs := []string{"", "LIB/ctrl-tmap", "BFS/no-ctrl-bmap", "RAY/baseline"}
	reasons := []string{"", "busy", "full", "cond", "alu", "nodest"}
	cycles := make([]int64, len(runs)) // per-run monotone clocks
	out := make([]Event, n)
	for i := range out {
		ri := rng.Intn(len(runs))
		cycles[ri] += int64(rng.Intn(2000))
		ev := Event{
			Cycle:  cycles[ri],
			Kind:   kinds[rng.Intn(len(kinds))],
			Run:    runs[ri],
			SM:     rng.Intn(6) - 1,
			Stack:  rng.Intn(6) - 1,
			PC:     rng.Intn(40),
			Reason: reasons[rng.Intn(len(reasons))],
			Bytes:  rng.Intn(512),
			N:      rng.Intn(64),
			Kept:   rng.Intn(8),
		}
		switch rng.Intn(3) {
		case 0: // no bit
		case 1:
			ev.Bit = BitValue(0)
		case 2:
			ev.Bit = BitValue(rng.Intn(8) - 1)
		}
		out[i] = ev
	}
	return out
}

// TestBinaryRoundTripProperty: random streams — including the empty one —
// must round-trip exactly, encode deterministically at the byte level, and
// convert to JSONL identical to a native JSONL encoding.
func TestBinaryRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial, n := range []int{0, 1, 7, 300, 4000} {
		events := randomEvents(rng, n)
		bin := collectBinary(t, events)
		if again := collectBinary(t, events); !bytes.Equal(bin, again) {
			t.Fatalf("trial %d: binary encoding is not deterministic", trial)
		}
		got := decodeBinary(t, bin)
		if len(got) != len(events) {
			t.Fatalf("trial %d: decoded %d events, want %d", trial, len(got), len(events))
		}
		if n > 0 && !reflect.DeepEqual(got, events) {
			t.Fatalf("trial %d: round trip mismatch", trial)
		}
		// Re-encoding the decoded stream reproduces the bytes.
		if re := collectBinary(t, got); !bytes.Equal(bin, re) {
			t.Fatalf("trial %d: decode→encode is not the identity", trial)
		}
		// Binary→JSONL conversion equals the native JSONL encoding.
		var conv bytes.Buffer
		read, written, err := Convert(bytes.NewReader(bin), &conv, nil)
		if err != nil {
			t.Fatalf("trial %d: convert: %v", trial, err)
		}
		if read != n || written != n {
			t.Fatalf("trial %d: convert counts %d/%d, want %d", trial, read, written, n)
		}
		if want := collectJSONL(t, events); !bytes.Equal(conv.Bytes(), want) {
			t.Fatalf("trial %d: converted JSONL differs from native JSONL", trial)
		}
	}
}

// TestBinaryCompression: the binary encoding of a realistic lifecycle
// stream must be at least 5x smaller than its JSONL equivalent (the
// full-scale-trace acceptance bound; CI enforces the same on a real run).
func TestBinaryCompression(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var events []Event
	cycle := int64(0)
	for i := 0; i < 20000; i++ {
		cycle += int64(rng.Intn(40))
		sm, stack, pc := rng.Intn(68), rng.Intn(4), 3+4*rng.Intn(5)
		switch rng.Intn(4) {
		case 0:
			events = append(events, Event{Cycle: cycle, Kind: EvCandidate, SM: sm, PC: pc})
		case 1:
			events = append(events, Event{Cycle: cycle, Kind: EvGate, SM: sm, Stack: stack, PC: pc, Reason: "busy"})
		case 2:
			events = append(events, Event{Cycle: cycle, Kind: EvSend, SM: sm, Stack: stack, PC: pc, Bytes: 160})
		case 3:
			events = append(events, Event{Cycle: cycle, Kind: EvAck, SM: sm, Stack: stack, PC: pc, Bytes: 96})
		}
	}
	bin := len(collectBinary(t, events))
	jsonl := len(collectJSONL(t, events))
	if bin*5 > jsonl {
		t.Fatalf("binary trace is only %.1fx smaller (%d vs %d bytes), want >= 5x",
			float64(jsonl)/float64(bin), bin, jsonl)
	}
	t.Logf("20000 events: jsonl %d bytes, binary %d bytes (%.1fx)",
		jsonl, bin, float64(jsonl)/float64(bin))
}

// TestBinaryReaderRejectsCorrupt: bad magic, unsupported versions, dangling
// string refs, and truncated records must all fail loudly — only a record
// boundary may read as end-of-stream.
func TestBinaryReaderRejectsCorrupt(t *testing.T) {
	if _, err := NewBinaryReader(strings.NewReader(`{"cycle":1}` + "\n")); err == nil {
		t.Error("JSONL input must not parse as a binary trace")
	}
	if _, err := NewBinaryReader(strings.NewReader("TOM")); err == nil {
		t.Error("truncated magic must fail")
	}
	if _, err := NewBinaryReader(strings.NewReader(binaryMagic + "\x7f")); err == nil {
		t.Error("future version must be rejected")
	}

	data := collectBinary(t, []Event{
		{Cycle: 10, Kind: EvSend, SM: 1, Stack: 2, PC: 3, Bytes: 160},
		{Cycle: 20, Kind: EvAck, SM: 1, Stack: 2, PC: 3, Bytes: 96},
	})
	for cut := len(binaryMagic) + 2; cut < len(data); cut++ {
		r, err := NewBinaryReader(bytes.NewReader(data[:cut]))
		if err != nil {
			continue // header itself truncated
		}
		sawEnd := false
		for i := 0; i < 4 && !sawEnd; i++ {
			_, err := r.Next()
			switch err {
			case nil:
			case io.EOF:
				sawEnd = true // truncation landed exactly on a record boundary
			default:
				sawEnd = true // corrupt: reported as a real error
			}
		}
		if !sawEnd {
			t.Fatalf("cut at %d: reader neither ended nor errored", cut)
		}
	}

	// A dangling intern ref must error, not panic.
	var buf bytes.Buffer
	buf.WriteString(binaryMagic)
	buf.WriteByte(1) // version
	buf.WriteByte(9) // kind ref 9: table is empty
	if r, err := NewBinaryReader(bytes.NewReader(buf.Bytes())); err == nil {
		if _, err := r.Next(); err == nil || err == io.EOF {
			t.Error("dangling string ref must be a hard error")
		}
	}
}

// TestConvertFilters: kind, run, and stack filters conjoin, and stack -1
// selects pre-destination events.
func TestConvertFilters(t *testing.T) {
	events := []Event{
		{Cycle: 1, Kind: EvSend, Run: "LIB/ctrl-tmap", SM: 1, Stack: 0, PC: 3, Bytes: 160},
		{Cycle: 2, Kind: EvSend, Run: "BFS/ctrl-tmap", SM: 2, Stack: 2, PC: 3, Bytes: 160},
		{Cycle: 3, Kind: EvGate, Run: "LIB/ctrl-tmap", SM: 1, Stack: -1, PC: 3, Reason: "cond"},
		{Cycle: 4, Kind: EvAck, Run: "LIB/ctrl-tmap", SM: 1, Stack: 0, PC: 3, Bytes: 96},
	}
	bin := collectBinary(t, events)

	decode := func(filter *Filter) []Event {
		var out bytes.Buffer
		if _, _, err := Convert(bytes.NewReader(bin), &out, filter); err != nil {
			t.Fatal(err)
		}
		var got []Event
		dec := json.NewDecoder(&out)
		for dec.More() {
			var ev Event
			if err := dec.Decode(&ev); err != nil {
				t.Fatal(err)
			}
			got = append(got, ev)
		}
		return got
	}

	if got := decode(&Filter{Kinds: []string{EvSend, EvAck}}); len(got) != 3 {
		t.Errorf("kind filter kept %d, want 3", len(got))
	}
	if got := decode(&Filter{Run: "LIB/ctrl-tmap"}); len(got) != 3 {
		t.Errorf("run filter kept %d, want 3", len(got))
	}
	noDest := -1
	if got := decode(&Filter{Stack: &noDest}); len(got) != 1 || got[0].Kind != EvGate {
		t.Errorf("stack -1 filter kept %+v, want the cond gate", got)
	}
	zero := 0
	if got := decode(&Filter{Kinds: []string{EvSend}, Run: "LIB/ctrl-tmap", Stack: &zero}); len(got) != 1 ||
		got[0].Cycle != 1 {
		t.Errorf("conjoined filter kept %+v, want the first send", got)
	}
}

// FuzzBinaryReader feeds the trace reader arbitrary bytes. Next must never
// panic; it must end in io.EOF or an error within len(data) records (every
// record takes at least one byte); and a stream it decodes completely must
// re-encode through BinarySink and decode back to the same events.
//
//	go test ./internal/obs -run '^$' -fuzz FuzzBinaryReader -fuzztime 20s
func FuzzBinaryReader(f *testing.F) {
	three := collectBinary(f, []Event{
		{Cycle: 5, Kind: EvGate, Run: "LIB/ctrl-tmap", SM: 3, Stack: -1, PC: 7, Reason: "cond"},
		{Cycle: 9, Kind: EvLearnEnd, Run: "LIB/ctrl-tmap", Stack: -1, N: 12, Bit: BitValue(0)},
		{Cycle: 11, Kind: EvSend, Run: "LIB/ctrl-tmap", SM: 3, Stack: 2, PC: 7, Bytes: 160},
	})
	f.Add(three)
	f.Add(collectBinary(f, nil)) // a header with no records
	f.Add(three[:len(three)-2])  // a truncated record
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewBinaryReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		var events []Event
		for {
			ev, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return // corrupt past this point, reported as such
			}
			if events = append(events, ev); len(events) > len(data) {
				t.Fatalf("%d records decoded from %d bytes", len(events), len(data))
			}
		}
		if got := decodeBinary(t, collectBinary(t, events)); !reflect.DeepEqual(got, events) {
			t.Fatalf("re-encoded stream decodes differently:\n got %+v\nwant %+v", got, events)
		}
	})
}
