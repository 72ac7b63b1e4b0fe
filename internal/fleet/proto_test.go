package fleet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"reflect"
	"testing"

	"afs/internal/lattice"
	"afs/internal/stream"
)

func TestEnvelopeRoundTrip(t *testing.T) {
	cases := []struct {
		typ     uint8
		stream  uint32
		payload []byte
	}{
		{msgOpen, 0, []byte(`{"distance":5}`)},
		{msgOpenOK, 7, nil},
		{msgRefuse, 9, []byte("admission cap reached")},
		{msgRounds, 0, appendRoundsEntry(nil, 1234, 3, []int32{0, 5, 19}, false, 1.5, 20)},
		{msgCorrs, 0, appendCorrsEntry(nil, 42, 9, stream.Correction{Kind: lattice.Spatial, Qubit: 3, Ancilla: -1, Round: 17})},
		{msgCheckpoint, 42, appendCkptPayload(nil, 64, 12, []byte(`{"base":32}`))},
		{msgFlush, 0, nil},
		{msgFlushOK, 0, []byte(`{"1":{}}`)},
		{msgPing, 0, nil},
		{msgPong, 0, nil},
		{msgClose, 3, nil},
	}
	var wire []byte
	for _, c := range cases {
		wire = appendEnvelope(wire, c.typ, c.stream, c.payload)
	}
	br := bytes.NewReader(wire)
	var buf []byte
	for i, c := range cases {
		env, err := readEnvelope(br, &buf)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if env.typ != c.typ || env.stream != c.stream || !bytes.Equal(env.payload, c.payload) {
			t.Fatalf("case %d: got (%d,%d,%x), want (%d,%d,%x)",
				i, env.typ, env.stream, env.payload, c.typ, c.stream, c.payload)
		}
	}
	if _, err := readEnvelope(br, &buf); err != io.EOF {
		t.Fatalf("want clean EOF after last message, got %v", err)
	}
}

func TestEnvelopeRejectsCorruption(t *testing.T) {
	wire := appendEnvelope(nil, msgRounds, 0, appendRoundsEntry(nil, 5, 0, []int32{1, 2}, false, 0, 20))

	// Truncation at every prefix length must error, never panic. A cut
	// before the full length prefix is a clean EOF boundary; anything past
	// it is mid-message.
	for n := 0; n < len(wire); n++ {
		var buf []byte
		_, err := readEnvelope(bytes.NewReader(wire[:n]), &buf)
		if err == nil {
			t.Fatalf("truncation at %d/%d bytes decoded", n, len(wire))
		}
	}

	// Every single-bit flip in the body must be detected (the length field
	// is outside the CRC, but a flip there misframes the body and the CRC
	// or length bound catches it — all that matters is an error).
	for i := 0; i < len(wire)*8; i++ {
		mut := append([]byte(nil), wire...)
		mut[i/8] ^= 1 << (i % 8)
		var buf []byte
		if _, err := readEnvelope(bytes.NewReader(mut), &buf); err == nil {
			t.Fatalf("bit flip at %d decoded undetected", i)
		}
	}
}

func TestEnvelopeRejectsVersionSkew(t *testing.T) {
	wire := appendEnvelope(nil, msgPing, 0, nil)
	// Patch the version byte and re-seal the CRC so only the version is
	// wrong — decode must fail with ErrVersion specifically.
	body := wire[4:]
	body[0] = ProtoVersion + 1
	crc := crc32.Checksum(body[:len(body)-envTailBytes], envCRC)
	binary.LittleEndian.PutUint32(body[len(body)-envTailBytes:], crc)
	var buf []byte
	_, err := readEnvelope(bytes.NewReader(wire), &buf)
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("want ErrVersion, got %v", err)
	}
}

func TestEnvelopeRejectsOversize(t *testing.T) {
	var wire []byte
	wire = binary.LittleEndian.AppendUint32(wire, maxEnvelope+1)
	wire = append(wire, make([]byte, 64)...)
	var buf []byte
	if _, err := readEnvelope(bytes.NewReader(wire), &buf); !errors.Is(err, ErrEnvelope) {
		t.Fatalf("want ErrEnvelope for oversize length, got %v", err)
	}
}

func TestRoundPayloadRoundTrip(t *testing.T) {
	const per = 30
	cases := []roundsEntry{
		{stream: 0, seq: 0},
		{stream: 1, seq: 7, events: []int32{0, 1, 29}, penalty: 123.5},
		{stream: 1, seq: 1 << 30, events: []int32{14}},
		{stream: 9, seq: 3, erased: true, penalty: 800},
	}
	check := func(tc, got roundsEntry) {
		t.Helper()
		if got.erased != tc.erased || got.penalty != tc.penalty {
			t.Fatalf("%+v: got erased=%v pen=%v", tc, got.erased, got.penalty)
		}
		// Erased rounds carry the seq explicitly — every round participates
		// in the shard's ordering check, erased or not.
		if got.seq != tc.seq {
			t.Fatalf("%+v: got seq %d", tc, got.seq)
		}
		if !tc.erased {
			if len(got.events) != len(tc.events) {
				t.Fatalf("%+v: got events %v", tc, got.events)
			}
			for i := range got.events {
				if got.events[i] != tc.events[i] {
					t.Fatalf("%+v: got events %v", tc, got.events)
				}
			}
		}
	}
	for _, tc := range cases {
		p := appendRoundPayload(nil, tc.seq, tc.events, tc.erased, tc.penalty, per)
		seq, ev, erased, pen, err := decodeRoundPayload(p, per, nil)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		check(tc, roundsEntry{tc.stream, seq, ev, erased, pen})
	}
	// The same rounds as one msgRounds tick: entries decode in order, each
	// with its stream id.
	got, err := decodeRounds(encodeRounds(cases, per), per)
	if err != nil || len(got) != len(cases) {
		t.Fatalf("tick: got %d entries, %v", len(got), err)
	}
	for k, tc := range cases {
		if got[k].stream != tc.stream {
			t.Fatalf("tick entry %d: stream %d, want %d", k, got[k].stream, tc.stream)
		}
		check(tc, got[k])
	}

	// Negative, NaN and Inf penalties are wire corruption, not data.
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		p := appendRoundPayload(nil, 0, nil, true, bad, per)
		if _, _, _, _, err := decodeRoundPayload(p, per, nil); err == nil {
			t.Fatalf("penalty %v decoded", bad)
		}
	}
}

func TestCorrPayloadRoundTrip(t *testing.T) {
	want := stream.Correction{Kind: lattice.Temporal, Qubit: -1, Ancilla: 19, Round: 1 << 40}
	p := appendCorrPayload(nil, 77, want)
	seq, got, err := decodeCorrPayload(p)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 77 || got != want {
		t.Fatalf("got seq=%d %+v, want seq=77 %+v", seq, got, want)
	}
	// A kind byte past the enum is corruption.
	p[8] = uint8(lattice.Temporal) + 1
	if _, _, err := decodeCorrPayload(p); err == nil {
		t.Fatal("invalid edge kind decoded")
	}
	if _, _, err := decodeCorrPayload(p[:len(p)-1]); err == nil {
		t.Fatal("truncated corr payload decoded")
	}
	// A msgCorrs burst: entries decode in order, each with its stream id.
	burst := corrBurst()
	if got, err := decodeCorrs(encodeCorrs(burst)); err != nil || !reflect.DeepEqual(got, burst) {
		t.Fatalf("burst: got %+v, %v; want %+v", got, err, burst)
	}
}

// roundsEntry is one decoded entry of a roundsPayload.
type roundsEntry struct {
	stream  uint32
	seq     uint32
	events  []int32
	erased  bool
	penalty float64
}

// decodeRounds decodes a whole roundsPayload the way a shard walks it:
// nextRoundsEntry splits the entries, decodeRoundPayload parses each.
func decodeRounds(p []byte, per int) ([]roundsEntry, error) {
	var out []roundsEntry
	for len(p) > 0 {
		id, round, rest, err := nextRoundsEntry(p)
		if err != nil {
			return nil, err
		}
		seq, ev, erased, pen, err := decodeRoundPayload(round, per, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, roundsEntry{id, seq, ev, erased, pen})
		p = rest
	}
	return out, nil
}

func encodeRounds(entries []roundsEntry, per int) []byte {
	var p []byte
	for _, e := range entries {
		p = appendRoundsEntry(p, e.stream, e.seq, e.events, e.erased, e.penalty, per)
	}
	return p
}

// corrsEntry is one decoded entry of a corrsPayload.
type corrsEntry struct {
	stream uint32
	seq    uint64
	c      stream.Correction
}

// decodeCorrs decodes a whole corrsPayload the way the router walks it.
func decodeCorrs(p []byte) ([]corrsEntry, error) {
	var out []corrsEntry
	for len(p) > 0 {
		var e corrsEntry
		var err error
		if e.stream, e.seq, e.c, p, err = nextCorrsEntry(p); err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

func encodeCorrs(entries []corrsEntry) []byte {
	var p []byte
	for _, e := range entries {
		p = appendCorrsEntry(p, e.stream, e.seq, e.c)
	}
	return p
}

// tickPayload is a multi-stream shard-tick holding an erased entry.
func tickPayload(per int) []roundsEntry {
	return []roundsEntry{
		{stream: 0, seq: 9, events: []int32{0, 7, 19}, penalty: 2.5},
		{stream: 3, seq: 9, events: []int32{}},
		{stream: 4, seq: 8, erased: true, penalty: 100},
		{stream: 11, seq: 9, events: []int32{int32(per - 1)}},
	}
}

func corrBurst() []corrsEntry {
	return []corrsEntry{
		{0, 4, stream.Correction{Kind: lattice.Spatial, Qubit: 2, Ancilla: -1, Round: 11}},
		{0, 5, stream.Correction{Kind: lattice.Temporal, Qubit: -1, Ancilla: 6, Round: 12}},
		{7, 1, stream.Correction{Kind: lattice.Spatial, Qubit: 19, Ancilla: -1, Round: 0}},
	}
}

// TestBatchedPayloadsRejectMalformed pins the entry framing: every way an
// entry list can fail to tile its payload is an error, never a panic or a
// silently shortened batch.
func TestBatchedPayloadsRejectMalformed(t *testing.T) {
	const per = 20
	entry := appendRoundsEntry(nil, 2, 5, []int32{3, 4}, false, 0, per)
	two := append(append([]byte(nil), entry...), appendRoundsEntry(nil, 3, 5, nil, true, 1, per)...)
	// An entry whose len covers one byte past its round payload.
	padded := append(append([]byte(nil), entry...), 0)
	binary.LittleEndian.PutUint32(padded[4:], binary.LittleEndian.Uint32(entry[4:])+1)
	pastEnd := append([]byte(nil), entry...)
	binary.LittleEndian.PutUint32(pastEnd[4:], binary.LittleEndian.Uint32(entry[4:])+1)
	burst := encodeCorrs(corrBurst())
	badKind := append([]byte(nil), burst...)
	badKind[corrsEntryBytes+4+8] = uint8(lattice.Temporal) + 1

	for _, tc := range []struct {
		name  string
		corrs bool
		p     []byte
	}{
		{"rounds: short entry header", false, entry[:roundsEntryHead-1]},
		{"rounds: header without payload", false, entry[:roundsEntryHead]},
		{"rounds: entry length past the end", false, pastEnd},
		{"rounds: truncated second entry", false, two[:len(two)-1]},
		{"rounds: trailing bytes after the last entry", false, append(append([]byte(nil), two...), 0, 0, 0)},
		{"rounds: trailing bytes inside an entry", false, padded},
		{"corrs: one byte short of an entry", true, burst[:corrsEntryBytes-1]},
		{"corrs: partial trailing entry", true, burst[:len(burst)-5]},
		{"corrs: trailing byte", true, append(append([]byte(nil), burst...), 0)},
		{"corrs: invalid edge kind", true, badKind},
	} {
		var err error
		if tc.corrs {
			_, err = decodeCorrs(tc.p)
		} else {
			_, err = decodeRounds(tc.p, per)
		}
		if err == nil {
			t.Errorf("%s: decoded", tc.name)
		}
	}
}

func TestCkptPayloadRoundTrip(t *testing.T) {
	snap := []byte(`{"base":64,"layers":[]}`)
	p := appendCkptPayload(nil, 640, 12, snap)
	rounds, corrSeq, got, err := decodeCkptPayload(p)
	if err != nil {
		t.Fatal(err)
	}
	if rounds != 640 || corrSeq != 12 || !bytes.Equal(got, snap) {
		t.Fatalf("got (%d,%d,%s)", rounds, corrSeq, got)
	}
	if _, _, _, err := decodeCkptPayload(p[:ckptHeadBytes-1]); err == nil {
		t.Fatal("truncated checkpoint payload decoded")
	}
}

// FuzzWireProtocol feeds arbitrary bytes to the envelope reader and the
// per-type payload decoders. Whatever the input — truncated, corrupted,
// version-skewed, adversarial lengths — decoding must return an error or a
// canonical message, and must never panic, hang, or mis-decode: any
// envelope that decodes successfully must re-encode to the identical bytes.
func FuzzWireProtocol(f *testing.F) {
	f.Add(appendEnvelope(nil, msgOpen, 0, []byte(`{"distance":5,"window":5,"commit":2}`)))
	tick := tickPayload(20)
	f.Add(appendEnvelope(nil, msgRounds, 0, encodeRounds(append(tick[:2:2], tick[3]), 20))) // multi-stream tick
	erasedTick := encodeRounds(tick, 20)
	f.Add(appendEnvelope(nil, msgRounds, 0, erasedTick))                     // one entry erased
	f.Add(appendEnvelope(nil, msgCorrs, 0, encodeCorrs(corrBurst())))        // multi-correction burst
	f.Add(appendEnvelope(nil, msgRounds, 0, erasedTick[:len(erasedTick)-2])) // truncated entry
	f.Add(appendEnvelope(nil, msgCheckpoint, 1, appendCkptPayload(nil, 128, 40, []byte(`{"base":96}`))))
	f.Add(appendEnvelope(nil, msgFlushOK, 0, []byte(`{"0":{"Windows":3}}`)))
	f.Add(append(appendEnvelope(nil, msgPing, 0, nil), appendEnvelope(nil, msgPong, 0, nil)...))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		br := bytes.NewReader(data)
		var buf []byte
		for {
			env, err := readEnvelope(br, &buf)
			if err != nil {
				return // detected corruption or end of input — both fine
			}
			// Canonical re-encode: a decoded envelope must serialize back
			// to exactly the bytes it came from (no second representation
			// of the same message).
			re := appendEnvelope(nil, env.typ, env.stream, env.payload)
			whole := len(data) - br.Len()
			n := len(re)
			if whole < n || !bytes.Equal(data[whole-n:whole], re) {
				t.Fatalf("envelope does not re-encode canonically")
			}
			// The payload decoders must tolerate arbitrary payloads for
			// their type.
			switch env.typ {
			case msgRounds:
				const per = 20
				if entries, err := decodeRounds(env.payload, per); err == nil {
					for _, e := range entries {
						for _, ev := range e.events {
							if ev < 0 || int(ev) >= per {
								t.Fatalf("rounds payload decoded out-of-range event %d", ev)
							}
						}
					}
					if !bytes.Equal(encodeRounds(entries, per), env.payload) {
						t.Fatalf("rounds payload does not re-encode canonically")
					}
				}
			case msgCorrs:
				if entries, err := decodeCorrs(env.payload); err == nil {
					if !bytes.Equal(encodeCorrs(entries), env.payload) {
						t.Fatalf("corrs payload does not re-encode canonically")
					}
				}
			case msgCheckpoint:
				_, _, _, _ = func() (uint64, uint64, []byte, error) { return decodeCkptPayload(env.payload) }()
			}
		}
	})
}
