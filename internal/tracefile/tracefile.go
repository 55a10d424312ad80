// Package tracefile implements the versioned on-disk format for
// transformer.Trace — the interface that lets DSE shards on different
// machines share one generated trace set, and lets externally produced
// traces (real trained-model activations) feed accel.Simulate without the
// synthetic generator.
//
// File layout (all integers little-endian):
//
//	magic "BTRC" | version u16 | flags u16 | headerLen u32
//	header JSON (strict: unknown fields reject)   | CRC32(header) u32
//	payload: per layer, in order — the packed 64-bit spike words of each
//	         present tensor (In, or Q, K, V), exactly as spike.Tensor
//	         stores them, then the bit-packed ECP keep masks if present
//	payloadLen u64 | CRC32(payload) u32
//	content digest u64
//
// The header is the trace's full metadata (transformer.Config plus per-layer
// shapes) as canonical JSON; the payload is streamed raw words, so writing
// and reading never materialize a second copy of the file in memory. The
// trailing content digest is a 64-bit FNV-1a over every preceding byte,
// following the accel.Options.Digest conventions (canonical encoding in,
// FNV-1a out), so two traces with identical content always carry identical
// digests regardless of who wrote them.
package tracefile

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"hash/fnv"
	"io"

	"repro/internal/canon"
	"repro/internal/spike"
	"repro/internal/transformer"
)

// Version is the current format version; readers reject anything else.
const Version = 1

var magic = [4]byte{'B', 'T', 'R', 'C'}

// Decoding limits. Header metadata is attacker-controlled from the decoder's
// point of view (a corrupt or hostile file), so every allocation it implies
// is capped before a single payload byte is read.
var (
	// MaxPayloadBytes caps the total payload a decoder will allocate.
	MaxPayloadBytes int64 = 1 << 30
	// MaxHeaderBytes caps the JSON header size.
	MaxHeaderBytes = 1 << 24
	// MaxDim caps each tensor dimension.
	MaxDim = 1 << 22
)

// Sentinel errors. Wrapped errors carry context; match with errors.Is.
var (
	ErrFormat  = errors.New("tracefile: not a valid trace file")
	ErrVersion = errors.New("tracefile: unsupported version")
	ErrCorrupt = errors.New("tracefile: corrupted trace file")
)

// TensorDim is the shape of one serialized spike tensor.
type TensorDim struct {
	T int `json:"t"`
	N int `json:"n"`
	D int `json:"d"`
}

func dimOf(s *spike.Tensor) *TensorDim {
	if s == nil {
		return nil
	}
	return &TensorDim{T: s.T, N: s.N, D: s.D}
}

// words returns the number of packed 64-bit words a tensor of this shape
// occupies: T·N rows of ⌈D/64⌉ words.
func (d TensorDim) words() int64 {
	return int64(d.T) * int64(d.N) * int64((d.D+63)/64)
}

func (d TensorDim) validate(name string) error {
	for _, f := range []struct {
		label string
		v     int
	}{{"t", d.T}, {"n", d.N}, {"d", d.D}} {
		if f.v <= 0 || f.v > MaxDim {
			return fmt.Errorf("%w: layer %s: dimension %s=%d outside (0,%d]",
				ErrFormat, name, f.label, f.v, MaxDim)
		}
	}
	return nil
}

// LayerInfo is the serialized metadata of one traced layer; the tensor dims
// double as the payload schema (a nil dim means the tensor is absent).
type LayerInfo struct {
	Block int    `json:"block"`
	Group string `json:"group"`
	Name  string `json:"name"`
	Kind  string `json:"kind"`

	DIn  int `json:"din,omitempty"`
	DOut int `json:"dout,omitempty"`

	In *TensorDim `json:"in,omitempty"`

	Q     *TensorDim `json:"q,omitempty"`
	K     *TensorDim `json:"k,omitempty"`
	V     *TensorDim `json:"v,omitempty"`
	Heads int        `json:"heads,omitempty"`
	QKeep bool       `json:"qkeep,omitempty"`
	KKeep bool       `json:"kkeep,omitempty"`
}

// Header is the trace's metadata block: the model configuration, the layer
// schedule, and free-form provenance (which the in-memory Trace does not
// carry — it survives only in the file).
type Header struct {
	Config transformer.Config `json:"config"`
	Layers []LayerInfo        `json:"layers"`
	Meta   map[string]string  `json:"meta,omitempty"`
}

// validate checks the header's internal consistency and computes the total
// payload size, enforcing the decoding limits.
func (h *Header) validate() (payloadBytes int64, err error) {
	if err := h.Config.Validate(); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	var words int64
	add := func(w int64) error {
		words += w
		if words > MaxPayloadBytes/8 {
			return fmt.Errorf("%w: payload exceeds %d bytes", ErrFormat, MaxPayloadBytes)
		}
		return nil
	}
	for i := range h.Layers {
		l := &h.Layers[i]
		if _, err := transformer.ParseLayerKind(l.Kind); err != nil {
			return 0, fmt.Errorf("%w: layer %q: %v", ErrFormat, l.Name, err)
		}
		for _, td := range []struct {
			label string
			dim   *TensorDim
		}{{"in", l.In}, {"q", l.Q}, {"k", l.K}, {"v", l.V}} {
			if td.dim == nil {
				continue
			}
			if err := td.dim.validate(l.Name + "." + td.label); err != nil {
				return 0, err
			}
			if err := add(td.dim.words()); err != nil {
				return 0, err
			}
		}
		if l.QKeep {
			if l.Q == nil {
				return 0, fmt.Errorf("%w: layer %q: qkeep mask without q tensor", ErrFormat, l.Name)
			}
			if err := add(maskWords(l.Q.T, l.Q.N)); err != nil {
				return 0, err
			}
		}
		if l.KKeep {
			if l.K == nil {
				return 0, fmt.Errorf("%w: layer %q: kkeep mask without k tensor", ErrFormat, l.Name)
			}
			if err := add(maskWords(l.K.T, l.K.N)); err != nil {
				return 0, err
			}
		}
	}
	return words * 8, nil
}

// maskWords returns the packed word count of a T×N keep mask (bit t·N+n).
func maskWords(t, n int) int64 { return (int64(t)*int64(n) + 63) / 64 }

// headerOf builds the header describing tr, validating the trace is
// serializable (well-formed masks, in-range dims).
func headerOf(tr *transformer.Trace, meta map[string]string) (*Header, error) {
	h := &Header{Config: tr.Cfg, Meta: meta}
	for i := range tr.Layers {
		l := &tr.Layers[i]
		li := LayerInfo{
			Block: l.Block, Group: l.Group, Name: l.Name, Kind: l.Kind.String(),
			DIn: l.DIn, DOut: l.DOut, Heads: l.Heads,
			In: dimOf(l.In), Q: dimOf(l.Q), K: dimOf(l.K), V: dimOf(l.V),
			QKeep: l.QKeep != nil, KKeep: l.KKeep != nil,
		}
		if err := checkMask(l.QKeep, li.Q, l.Name+".qkeep"); err != nil {
			return nil, err
		}
		if err := checkMask(l.KKeep, li.K, l.Name+".kkeep"); err != nil {
			return nil, err
		}
		h.Layers = append(h.Layers, li)
	}
	if _, err := h.validate(); err != nil {
		return nil, fmt.Errorf("tracefile: encode: %w", err)
	}
	return h, nil
}

// checkMask verifies a keep mask is a dense T×N grid matching its tensor.
func checkMask(mask [][]bool, dim *TensorDim, name string) error {
	if mask == nil {
		return nil
	}
	if dim == nil {
		return fmt.Errorf("tracefile: %s: keep mask without its tensor", name)
	}
	if len(mask) != dim.T {
		return fmt.Errorf("tracefile: %s: %d mask rows, tensor has T=%d", name, len(mask), dim.T)
	}
	for t, row := range mask {
		if len(row) != dim.N {
			return fmt.Errorf("tracefile: %s: row %d has %d cols, tensor has N=%d", name, t, len(row), dim.N)
		}
	}
	return nil
}

// Writer streams one trace to an underlying io.Writer.
type Writer struct {
	w io.Writer
	// Meta is free-form provenance recorded in the header (e.g. the model,
	// seed, and generator of a packed trace). It does not round-trip into
	// the in-memory Trace; readers see it via Header.
	Meta map[string]string
}

// NewWriter returns a Writer targeting w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// WriteTrace serializes tr and returns its content digest. The payload is
// streamed tensor by tensor through a fixed buffer; nothing but the header
// JSON is materialized in memory.
func (w *Writer) WriteTrace(tr *transformer.Trace) (uint64, error) {
	hdr, err := headerOf(tr, w.Meta)
	if err != nil {
		return 0, err
	}
	hdata, err := json.Marshal(hdr)
	if err != nil {
		return 0, fmt.Errorf("tracefile: marshal header: %w", err)
	}
	if len(hdata) > MaxHeaderBytes {
		return 0, fmt.Errorf("tracefile: header %d bytes exceeds %d", len(hdata), MaxHeaderBytes)
	}

	// The content digest is a streaming 64-bit FNV-1a over every byte up to
	// (and including) the payload CRC, same hash as accel.Options.Digest.
	dig := fnv.New64a()
	out := io.MultiWriter(w.w, dig)

	var pre [12]byte
	copy(pre[:4], magic[:])
	binary.LittleEndian.PutUint16(pre[4:6], Version)
	binary.LittleEndian.PutUint16(pre[6:8], 0) // flags, reserved
	binary.LittleEndian.PutUint32(pre[8:12], uint32(len(hdata)))
	if _, err := out.Write(pre[:]); err != nil {
		return 0, fmt.Errorf("tracefile: write preamble: %w", err)
	}
	if _, err := out.Write(hdata); err != nil {
		return 0, fmt.Errorf("tracefile: write header: %w", err)
	}
	var crcb [4]byte
	binary.LittleEndian.PutUint32(crcb[:], crc32.ChecksumIEEE(hdata))
	if _, err := out.Write(crcb[:]); err != nil {
		return 0, fmt.Errorf("tracefile: write header CRC: %w", err)
	}

	pcrc := crc32.NewIEEE()
	pw := &wordWriter{w: io.MultiWriter(out, pcrc), buf: make([]byte, 32<<10)}
	for i := range tr.Layers {
		l := &tr.Layers[i]
		for _, tn := range []*spike.Tensor{l.In, l.Q, l.K, l.V} {
			if tn != nil {
				pw.words(tn.Words())
			}
		}
		if l.QKeep != nil {
			pw.mask(l.QKeep)
		}
		if l.KKeep != nil {
			pw.mask(l.KKeep)
		}
	}
	if err := pw.flush(); err != nil {
		return 0, fmt.Errorf("tracefile: write payload: %w", err)
	}

	var tail [12]byte
	binary.LittleEndian.PutUint64(tail[:8], uint64(pw.written))
	binary.LittleEndian.PutUint32(tail[8:12], pcrc.Sum32())
	if _, err := out.Write(tail[:]); err != nil {
		return 0, fmt.Errorf("tracefile: write trailer: %w", err)
	}
	// The digest covers everything up to and including the payload CRC; it
	// is the one field written past the hashed span.
	var dg [8]byte
	binary.LittleEndian.PutUint64(dg[:], dig.Sum64())
	if _, err := w.w.Write(dg[:]); err != nil {
		return 0, fmt.Errorf("tracefile: write digest: %w", err)
	}
	return dig.Sum64(), nil
}

// wordWriter streams 64-bit words through a fixed byte buffer, deferring
// its single error until flush.
type wordWriter struct {
	w       io.Writer
	buf     []byte
	n       int
	written int64
	err     error
}

func (p *wordWriter) word(v uint64) {
	if p.err != nil {
		return
	}
	if p.n+8 > len(p.buf) {
		p.err = p.flush()
	}
	binary.LittleEndian.PutUint64(p.buf[p.n:], v)
	p.n += 8
}

func (p *wordWriter) words(ws []uint64) {
	for _, v := range ws {
		p.word(v)
	}
}

// mask packs a T×N keep mask as bits t·N+n into whole words, padding zero.
func (p *wordWriter) mask(mask [][]bool) {
	var w uint64
	var bit uint
	for _, row := range mask {
		for _, keep := range row {
			if keep {
				w |= 1 << bit
			}
			if bit++; bit == 64 {
				p.word(w)
				w, bit = 0, 0
			}
		}
	}
	if bit > 0 {
		p.word(w)
	}
}

func (p *wordWriter) flush() error {
	if p.err != nil {
		return p.err
	}
	if p.n == 0 {
		return nil
	}
	n, err := p.w.Write(p.buf[:p.n])
	p.written += int64(n)
	p.n = 0
	return err
}

// Reader streams one trace from an underlying io.Reader. Header() reads and
// validates only the metadata block (cheap inspection); ReadTrace() consumes
// the payload and trailer, verifying both CRCs and the content digest.
type Reader struct {
	r         io.Reader
	dig       hash.Hash64
	hdr       *Header
	hdrErr    error
	hdrBytes  int64 // preamble + header JSON + header CRC
	payloadSz int64 // computed from the validated header
}

// NewReader returns a Reader consuming r.
func NewReader(r io.Reader) *Reader { return &Reader{r: r, dig: fnv.New64a()} }

// Header reads, CRC-checks, and validates the metadata block. It is
// idempotent; ReadTrace calls it implicitly.
func (r *Reader) Header() (*Header, error) {
	if r.hdr != nil || r.hdrErr != nil {
		return r.hdr, r.hdrErr
	}
	r.hdr, r.payloadSz, r.hdrErr = r.readHeader()
	return r.hdr, r.hdrErr
}

func (r *Reader) readHeader() (*Header, int64, error) {
	tee := io.TeeReader(r.r, r.dig)
	var pre [12]byte
	if _, err := io.ReadFull(tee, pre[:]); err != nil {
		return nil, 0, fmt.Errorf("%w: truncated preamble: %v", ErrCorrupt, err)
	}
	if [4]byte(pre[:4]) != magic {
		return nil, 0, fmt.Errorf("%w: bad magic %q", ErrFormat, pre[:4])
	}
	if v := binary.LittleEndian.Uint16(pre[4:6]); v != Version {
		return nil, 0, fmt.Errorf("%w: file version %d, this reader speaks %d", ErrVersion, v, Version)
	}
	if f := binary.LittleEndian.Uint16(pre[6:8]); f != 0 {
		return nil, 0, fmt.Errorf("%w: reserved flags %#x set", ErrFormat, f)
	}
	hlen := binary.LittleEndian.Uint32(pre[8:12])
	if hlen == 0 || hlen > uint32(MaxHeaderBytes) {
		return nil, 0, fmt.Errorf("%w: header length %d outside (0,%d]", ErrFormat, hlen, MaxHeaderBytes)
	}
	hdata := make([]byte, hlen)
	if _, err := io.ReadFull(tee, hdata); err != nil {
		return nil, 0, fmt.Errorf("%w: truncated header: %v", ErrCorrupt, err)
	}
	var crcb [4]byte
	if _, err := io.ReadFull(tee, crcb[:]); err != nil {
		return nil, 0, fmt.Errorf("%w: truncated header CRC: %v", ErrCorrupt, err)
	}
	if want, got := binary.LittleEndian.Uint32(crcb[:]), crc32.ChecksumIEEE(hdata); want != got {
		return nil, 0, fmt.Errorf("%w: header CRC mismatch (file %08x, computed %08x)", ErrCorrupt, want, got)
	}
	h := &Header{}
	if err := canon.DecodeStrict(hdata, h); err != nil {
		return nil, 0, fmt.Errorf("%w: header JSON: %v", ErrFormat, err)
	}
	sz, err := h.validate()
	if err != nil {
		return nil, 0, err
	}
	r.hdrBytes = int64(len(pre)) + int64(hlen) + int64(len(crcb))
	return h, sz, nil
}

// ReadTrace decodes the full trace, verifying the payload CRC, the declared
// payload length, the content digest, and the padding-bit invariants of
// every tensor.
func (r *Reader) ReadTrace() (*transformer.Trace, error) {
	h, err := r.Header()
	if err != nil {
		return nil, err
	}
	pcrc := crc32.NewIEEE()
	pr := io.TeeReader(r.r, io.MultiWriter(r.dig, pcrc))
	buf := make([]byte, 32<<10)

	tr := &transformer.Trace{Cfg: h.Config}
	for _, li := range h.Layers {
		kind, err := transformer.ParseLayerKind(li.Kind) // validated already
		if err != nil {
			return nil, err
		}
		l := transformer.TraceLayer{
			Block: li.Block, Group: li.Group, Name: li.Name, Kind: kind,
			DIn: li.DIn, DOut: li.DOut, Heads: li.Heads,
		}
		for _, td := range []struct {
			dim *TensorDim
			dst **spike.Tensor
		}{{li.In, &l.In}, {li.Q, &l.Q}, {li.K, &l.K}, {li.V, &l.V}} {
			if td.dim == nil {
				continue
			}
			if *td.dst, err = readTensor(pr, buf, *td.dim); err != nil {
				return nil, fmt.Errorf("%w (layer %q)", err, li.Name)
			}
		}
		if li.QKeep {
			if l.QKeep, err = readMask(pr, buf, li.Q.T, li.Q.N); err != nil {
				return nil, fmt.Errorf("%w (layer %q qkeep)", err, li.Name)
			}
		}
		if li.KKeep {
			if l.KKeep, err = readMask(pr, buf, li.K.T, li.K.N); err != nil {
				return nil, fmt.Errorf("%w (layer %q kkeep)", err, li.Name)
			}
		}
		tr.Layers = append(tr.Layers, l)
	}

	tee := io.TeeReader(r.r, r.dig)
	var tail [12]byte
	if _, err := io.ReadFull(tee, tail[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated trailer: %v", ErrCorrupt, err)
	}
	if plen := binary.LittleEndian.Uint64(tail[:8]); plen != uint64(r.payloadSz) {
		return nil, fmt.Errorf("%w: payload length %d, header implies %d", ErrCorrupt, plen, r.payloadSz)
	}
	if want, got := binary.LittleEndian.Uint32(tail[8:12]), pcrc.Sum32(); want != got {
		return nil, fmt.Errorf("%w: payload CRC mismatch (file %08x, computed %08x)", ErrCorrupt, want, got)
	}
	var dg [8]byte
	if _, err := io.ReadFull(r.r, dg[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated digest: %v", ErrCorrupt, err)
	}
	if want, got := binary.LittleEndian.Uint64(dg[:]), r.dig.Sum64(); want != got {
		return nil, fmt.Errorf("%w: content digest mismatch (file %016x, computed %016x)", ErrCorrupt, want, got)
	}
	return tr, nil
}

// readWords fills dst with little-endian words from r through buf.
func readWords(r io.Reader, buf []byte, dst []uint64) error {
	for len(dst) > 0 {
		chunk := len(buf) / 8
		if chunk > len(dst) {
			chunk = len(dst)
		}
		b := buf[:chunk*8]
		if _, err := io.ReadFull(r, b); err != nil {
			return fmt.Errorf("%w: truncated payload: %v", ErrCorrupt, err)
		}
		for i := 0; i < chunk; i++ {
			dst[i] = binary.LittleEndian.Uint64(b[i*8:])
		}
		dst = dst[chunk:]
	}
	return nil
}

func readTensor(r io.Reader, buf []byte, dim TensorDim) (*spike.Tensor, error) {
	words := make([]uint64, dim.words())
	if err := readWords(r, buf, words); err != nil {
		return nil, err
	}
	s, err := spike.NewTensorFromWords(dim.T, dim.N, dim.D, words)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return s, nil
}

func readMask(r io.Reader, buf []byte, t, n int) ([][]bool, error) {
	words := make([]uint64, maskWords(t, n))
	if err := readWords(r, buf, words); err != nil {
		return nil, err
	}
	bits := int64(t) * int64(n)
	if pad := uint(bits & 63); pad != 0 {
		if words[len(words)-1]&^((1<<pad)-1) != 0 {
			return nil, fmt.Errorf("%w: nonzero padding bits in keep mask", ErrCorrupt)
		}
	}
	mask := make([][]bool, t)
	idx := int64(0)
	for ti := range mask {
		row := make([]bool, n)
		for ni := range row {
			row[ni] = words[idx>>6]>>(uint(idx)&63)&1 != 0
			idx++
		}
		mask[ti] = row
	}
	return mask, nil
}

// Encode serializes tr to w and returns its content digest.
func Encode(w io.Writer, tr *transformer.Trace) (uint64, error) {
	return NewWriter(w).WriteTrace(tr)
}

// Decode deserializes one trace from r.
func Decode(r io.Reader) (*transformer.Trace, error) {
	return NewReader(r).ReadTrace()
}

// Digest computes the content digest of tr without writing anywhere — the
// digest Encode would return.
func Digest(tr *transformer.Trace) (uint64, error) {
	return Encode(io.Discard, tr)
}

// Info summarizes a trace file without decoding its payload.
type Info struct {
	Version      int
	Header       *Header
	PayloadBytes int64  // implied by the header metadata
	Digest       uint64 // trailer content digest (FileInfo only; 0 otherwise)
	FileBytes    int64  // on-disk size (FileInfo only; 0 otherwise)
}

// ReadInfo reads and validates only the metadata block of a trace stream.
func ReadInfo(r io.Reader) (*Info, error) {
	rd := NewReader(r)
	h, err := rd.Header()
	if err != nil {
		return nil, err
	}
	return &Info{Version: Version, Header: h, PayloadBytes: rd.payloadSz}, nil
}
