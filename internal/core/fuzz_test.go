package core

import (
	"testing"

	"luckystore/internal/transport"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// fuzzSenders are the processes a fuzzed message may come from: both
// writer identities, three readers and a server (whose messages every
// variant drops).
var fuzzSenders = []types.ProcID{
	types.WriterID(), types.WriterIDN(1),
	types.ReaderID(0), types.ReaderID(1), types.ReaderID(2),
	types.ServerID(0),
}

// fuzzFrozenReaders are the readers a frozen entry may name; the last
// is no reader, so Validate rejects its message.
var fuzzFrozenReaders = []types.ProcID{types.ReaderID(0), types.ReaderID(1), types.ReaderID(2), types.WriterID()}

var fuzzValues = []types.Value{"a", "b", "c", "d"}

type fuzzStep struct {
	from types.ProcID
	m    wire.Message
}

// fuzzPair decodes a tagged pair from one byte: seq (3 bits), writer
// (1 bit), value (2 bits); seq 0 is ⊥.
func fuzzPair(b byte) types.Tagged {
	if b&7 == 0 {
		return types.Bottom()
	}
	return types.Tagged{TS: types.TS(b & 7), W: types.WID(b >> 3 & 1), Val: fuzzValues[b>>4&3]}
}

func fuzzPairByte(c types.Tagged) byte {
	if c.IsBottom() {
		return 0
	}
	return byte(c.TS)&7 | byte(c.W&1)<<3 | (c.Val[0]-'a')&3<<4
}

// decodeFuzzSteps reads a message sequence, six header bytes and three
// bytes per frozen entry each: sender, kind|spec|round, ts, pair,
// pair, frozen count, then (reader, pair, tsr) per entry. A truncated
// message ends the sequence.
func decodeFuzzSteps(data []byte) []fuzzStep {
	var steps []fuzzStep
	for len(data) >= 6 {
		h := data[:6]
		n := int(h[5] & 3)
		if len(data) < 6+3*n {
			break
		}
		var frozen []types.FrozenEntry
		for i := 0; i < n; i++ {
			e := data[6+3*i:]
			frozen = append(frozen, types.FrozenEntry{
				Reader: fuzzFrozenReaders[e[0]&3], PW: fuzzPair(e[1]), TSR: types.ReaderTS(e[2] & 7),
			})
		}
		data = data[6+3*n:]
		from := fuzzSenders[int(h[0])%len(fuzzSenders)]
		round := int(h[1] >> 3 & 3)
		var m wire.Message
		switch h[1] & 3 {
		case 0:
			m = wire.PW{TS: types.TS(h[2] & 7), PW: fuzzPair(h[3]), W: fuzzPair(h[4]), Frozen: frozen, Spec: h[1]&4 != 0}
		case 1:
			m = wire.Read{TSR: types.ReaderTS(h[2] & 7), Round: round}
		default:
			m = wire.W{Round: round, Tag: int64(h[2] & 7), C: fuzzPair(h[3]), Frozen: frozen}
		}
		steps = append(steps, fuzzStep{from, m})
	}
	return steps
}

// encodeFuzzSteps is decodeFuzzSteps' inverse on the messages it can
// express, for seeding the corpus.
func encodeFuzzSteps(steps []fuzzStep) []byte {
	var data []byte
	for _, st := range steps {
		sender := 0
		for i, p := range fuzzSenders {
			if p == st.from {
				sender = i
			}
		}
		var kind, ts, a, b byte
		var frozen []types.FrozenEntry
		switch v := st.m.(type) {
		case wire.PW:
			ts, a, b, frozen = byte(v.TS), fuzzPairByte(v.PW), fuzzPairByte(v.W), v.Frozen
			if v.Spec {
				kind |= 4
			}
		case wire.Read:
			kind, ts = 1|byte(v.Round&3)<<3, byte(v.TSR)
		case wire.W:
			kind, ts, a, frozen = 2|byte(v.Round&3)<<3, byte(v.Tag), fuzzPairByte(v.C), v.Frozen
		}
		data = append(data, byte(sender), kind, ts&7, a, b, byte(len(frozen)))
		for _, f := range frozen {
			data = append(data, byte(f.Reader[1]-'0'), fuzzPairByte(f.PW), byte(f.TSR))
		}
	}
	return data
}

// FuzzServerStep steps Validate-passing message sequences into both
// server variants through StepAppend, with one reused buffer, and
// asserts: no panic; pw, w and vw stamps never decrease; the per-reader
// slots never outnumber the readers named so far — nothing is stored
// per writer (the space-bounds property, DESIGN.md §10); and the
// snapshot records, replayed into a fresh server, reproduce the state.
func FuzzServerStep(f *testing.F) {
	w, r0, r1, r2 := types.WriterID(), types.ReaderID(0), types.ReaderID(1), types.ReaderID(2)
	// Seeds: the message sequences of server_test.go's cases and the
	// snapshot round trip's.
	for _, seed := range [][]fuzzStep{
		{{w, wire.PW{TS: 1, PW: tv(1, "a"), W: types.Bottom()}}, {w, wire.PW{TS: 2, PW: tv(2, "b"), W: tv(1, "a")}}},
		{{w, wire.PW{TS: 5, PW: tv(5, "c"), W: tv(4, "d")}}, {w, wire.PW{TS: 2, PW: tv(2, "b"), W: tv(1, "a")}}},
		{{r0, wire.PW{TS: 1, PW: tv(1, "a"), W: types.Bottom()}}, {types.ServerID(0), wire.PW{TS: 1, PW: tv(1, "a"), W: types.Bottom()}}},
		{{w, wire.PW{TS: 0, PW: types.Bottom(), W: types.Bottom()}}, {w, wire.W{Round: 0, Tag: 1, C: tv(1, "a")}}, {w, wire.Read{TSR: 0, Round: 1}}},
		{{w, wire.W{Round: 1, Tag: 7, C: tv(7, "c")}}, {w, wire.W{Round: 2, Tag: 7, C: tv(7, "c")}}, {w, wire.W{Round: 3, Tag: 7, C: tv(7, "c")}}},
		{{r1, wire.W{Round: 3, Tag: 3, C: tv(4, "b")}}, {r0, wire.W{Round: 3, Tag: 1, C: tv(6, "d")}}, {w, wire.W{Round: 2, Tag: 1, C: tv(1, "a")}}},
		{{w, wire.PW{TS: 3, PW: tv(3, "c"), W: tv(2, "b")}}, {w, wire.W{Round: 3, Tag: 1, C: tv(1, "a")}}, {r0, wire.Read{TSR: 1, Round: 1}}},
		{{r0, wire.Read{TSR: 5, Round: 1}}, {r0, wire.Read{TSR: 5, Round: 2}}, {r0, wire.Read{TSR: 3, Round: 2}}},
		{{r2, wire.Read{TSR: 4, Round: 2}}, {w, wire.PW{TS: 1, PW: tv(1, "a"), W: types.Bottom()}},
			{w, wire.PW{TS: 2, PW: tv(2, "b"), W: tv(1, "a"), Frozen: []types.FrozenEntry{{Reader: r2, PW: tv(2, "b"), TSR: 4}}}}},
		{{r0, wire.Read{TSR: 6, Round: 2}}, {w, wire.PW{TS: 1, PW: tv(1, "a"), W: types.Bottom(), Frozen: []types.FrozenEntry{{Reader: r0, PW: tv(1, "a"), TSR: 4}}}},
			{w, wire.PW{TS: 7, PW: tv(7, "c"), W: tv(6, "d")}}, {w, wire.PW{TS: 2, PW: tv(2, "b"), W: tv(1, "a"), Frozen: []types.FrozenEntry{{Reader: r0, PW: tv(2, "b"), TSR: 7}}}}},
		{{w, wire.PW{TS: 1, PW: tv(1, "a"), W: types.Bottom()}}, {r0, wire.Read{TSR: 1, Round: 1}}, {w, wire.W{Round: 2, Tag: 1, C: tv(1, "a")}}},
		{{types.WriterIDN(1), wire.PW{TS: 2, PW: types.Tagged{TS: 2, W: 1, Val: "b"}, W: tv(1, "a"), Spec: true}}, {w, wire.PW{TS: 2, PW: tv(2, "a"), W: tv(1, "a"), Spec: true}}},
		{{w, wire.PW{TS: 1, PW: types.Bottom(), W: tv(1, "a")}}},
	} {
		f.Add(encodeFuzzSteps(seed))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		servers := []*Server{NewServer(), NewRegularServer()}
		fresh := []func() *Server{NewServer, NewRegularServer}
		named := map[types.ProcID]bool{}
		var out []transport.Outgoing
		for _, st := range decodeFuzzSteps(data) {
			if wire.Validate(st.m) != nil {
				continue
			}
			if st.from.IsReader() {
				named[st.from] = true
			}
			var frozen []types.FrozenEntry
			switch v := st.m.(type) {
			case wire.PW:
				frozen = v.Frozen
			case wire.W:
				frozen = v.Frozen
			}
			for _, e := range frozen {
				named[e.Reader] = true
			}
			for _, s := range servers {
				pw0, w0, vw0 := s.State()
				out = s.StepAppend(st.from, st.m, out[:0])
				pw, w, vw := s.State()
				if pw.Stamp().Less(pw0.Stamp()) || w.Stamp().Less(w0.Stamp()) || vw.Stamp().Less(vw0.Stamp()) {
					t.Fatalf("%s %+v: stamps decreased: (%v,%v,%v) -> (%v,%v,%v)", st.from, st.m, pw0, w0, vw0, pw, w, vw)
				}
				if fs, rs := s.StateSize(); fs > len(named) || rs > len(named) {
					t.Fatalf("%d frozen and %d reader slots for %d readers named", fs, rs, len(named))
				}
			}
		}
		for i, s := range servers {
			got := fresh[i]()
			if err := s.SnapshotRecords(func(from types.ProcID, m wire.Message) error {
				if err := wire.Validate(m); err != nil {
					t.Fatalf("snapshot emitted invalid %+v: %v", m, err)
				}
				out = got.StepAppend(from, m, out[:0])
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			pw, w, vw := s.State()
			gpw, gw, gvw := got.State()
			if pw != gpw || w != gw || vw != gvw {
				t.Fatalf("snapshot replay: want (%v,%v,%v) got (%v,%v,%v)", pw, w, vw, gpw, gw, gvw)
			}
			for _, r := range fuzzFrozenReaders[:3] {
				if s.FrozenFor(r) != got.FrozenFor(r) || s.ReaderTS(r) != got.ReaderTS(r) {
					t.Fatalf("snapshot replay: reader %s: want (%+v, %d) got (%+v, %d)",
						r, s.FrozenFor(r), s.ReaderTS(r), got.FrozenFor(r), got.ReaderTS(r))
				}
			}
		}
	})
}
