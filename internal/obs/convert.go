package obs

import "io"

// Filter selects a subset of a trace. The zero value matches everything;
// each set constraint must hold (conjunction).
type Filter struct {
	// Kinds, when non-empty, keeps only events whose Kind is listed.
	Kinds []string
	// Run, when non-empty, keeps only events with this run label.
	Run string
	// Stack, when non-nil, keeps only events on this stack id (use -1 for
	// events that fired before a destination was known).
	Stack *int
}

// Match reports whether ev passes the filter.
func (f *Filter) Match(ev Event) bool {
	if f == nil {
		return true
	}
	if len(f.Kinds) > 0 {
		ok := false
		for _, k := range f.Kinds {
			if ev.Kind == k {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if f.Run != "" && ev.Run != f.Run {
		return false
	}
	if f.Stack != nil && ev.Stack != *f.Stack {
		return false
	}
	return true
}

// Convert decodes a binary trace from in and writes it to out as JSON lines,
// keeping only events the filter matches (nil keeps everything). It returns
// how many events were read and written. The decoder is lossless and both
// codecs are deterministic, so an unfiltered conversion is byte for byte what
// a JSONLSink fed the same events writes.
func Convert(in io.Reader, out io.Writer, filter *Filter) (read, written int, err error) {
	r, err := NewBinaryReader(in)
	if err != nil {
		return 0, 0, err
	}
	sink := NewJSONLSink(out)
	for {
		ev, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return read, written, err
		}
		read++
		if !filter.Match(ev) {
			continue
		}
		sink.Emit(ev)
		written++
	}
	return read, written, sink.Flush()
}
