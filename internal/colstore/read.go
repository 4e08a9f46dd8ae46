package colstore

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"unsafe"

	"privateclean/internal/faults"
	"privateclean/internal/relation"
)

// corruptf builds the typed error every malformed input maps to. The whole
// reader funnels through it so a fuzzer (and a caller's errors.Is) sees one
// kind: faults.ErrBadInput.
func corruptf(format string, args ...any) error {
	return faults.Errorf(faults.ErrBadInput, "colstore: "+format, args...)
}

// isLittleEndian reports whether the host matches the format's byte order,
// which is what permits aliasing mapped bytes as typed slices.
var isLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// Decode parses a complete .pcol image and reconstructs the relation. Each
// discrete column is installed as its serialized dictionary encoding alone,
// so no index is rebuilt at query time and no per-row string column is built
// unless a caller asks the relation for one.
//
// The returned relation's numeric columns and code vectors alias data when
// the host is little-endian and the blocks are 8-byte aligned in memory
// (always true for a file mapping); otherwise they are decoded into fresh
// slices. Callers that alias a memory mapping must keep it valid for the
// relation's lifetime — View manages that pairing.
//
// Decode never panics on malformed input: every offset and size is
// bounds-checked against the image, every CRC verified, and every violation
// returned as a faults.ErrBadInput error.
func Decode(data []byte) (*relation.Relation, error) {
	if uint64(len(data)) < headerSize+footerSize {
		return nil, corruptf("file too short: %d bytes", len(data))
	}

	// Header.
	hdr := data[:headerSize]
	if string(hdr[0:4]) != magic {
		return nil, corruptf("bad magic %q", hdr[0:4])
	}
	if got := binary.LittleEndian.Uint32(hdr[28:32]); got != crc32.ChecksumIEEE(hdr[:28]) {
		return nil, corruptf("header checksum mismatch")
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != formatVersion {
		return nil, corruptf("unsupported format version %d (this build reads version %d)", v, formatVersion)
	}
	if f := binary.LittleEndian.Uint16(hdr[6:8]); f != 0 {
		return nil, corruptf("unknown flags %#x", f)
	}
	rows64 := binary.LittleEndian.Uint64(hdr[8:16])
	ncols := binary.LittleEndian.Uint32(hdr[16:20])
	dirOff := binary.LittleEndian.Uint64(hdr[20:28])
	if rows64 > maxRows {
		return nil, corruptf("row count %d exceeds the format bound", rows64)
	}
	if ncols > maxCols {
		return nil, corruptf("column count %d exceeds the format bound", ncols)
	}
	rows := int(rows64)

	// Footer. The directory must fill the file between its offset and the
	// footer exactly.
	ftr := data[len(data)-footerSize:]
	if string(ftr[12:16]) != footerMagic {
		return nil, corruptf("bad footer magic %q", ftr[12:16])
	}
	dirSize := binary.LittleEndian.Uint64(ftr[0:8])
	dataEnd := uint64(len(data) - footerSize)
	if dirOff < headerSize || dirOff > dataEnd || dataEnd-dirOff != dirSize {
		return nil, corruptf("directory [%d,+%d) does not fit the file", dirOff, dirSize)
	}
	dir := data[dirOff:dataEnd]
	if got := binary.LittleEndian.Uint32(ftr[8:12]); got != crc32.ChecksumIEEE(dir) {
		return nil, corruptf("directory checksum mismatch")
	}

	// Directory: one entry per column, consumed exactly.
	cur := cursor{b: dir}
	cols := make([]relation.Column, 0, ncols)
	numeric := make(map[string][]float64)
	coded := make(map[string]*relation.DiscreteIndex)
	for i := uint32(0); i < ncols; i++ {
		name, err := cur.str()
		if err != nil {
			return nil, corruptf("directory entry %d: %v", i, err)
		}
		if name == "" {
			return nil, corruptf("directory entry %d: empty column name", i)
		}
		if _, dup := numeric[name]; dup {
			return nil, corruptf("duplicate column %q", name)
		}
		if _, dup := coded[name]; dup {
			return nil, corruptf("duplicate column %q", name)
		}
		kind, err := cur.byte()
		if err != nil {
			return nil, corruptf("directory entry %q: %v", name, err)
		}
		switch kind {
		case kindNumeric:
			ref, err := cur.blockRef()
			if err != nil {
				return nil, corruptf("directory entry %q: %v", name, err)
			}
			block, err := checkBlock(data, dirOff, ref, uint64(rows)*8, 8)
			if err != nil {
				return nil, corruptf("numeric column %q: %v", name, err)
			}
			numeric[name] = decodeFloats(block, rows)
			cols = append(cols, relation.Column{Name: name, Kind: relation.Numeric})
		case kindDiscrete:
			domainCount, err := cur.u32()
			if err != nil {
				return nil, corruptf("directory entry %q: %v", name, err)
			}
			domRef, err := cur.blockRef()
			if err != nil {
				return nil, corruptf("directory entry %q: %v", name, err)
			}
			codesRef, err := cur.blockRef()
			if err != nil {
				return nil, corruptf("directory entry %q: %v", name, err)
			}
			domBlock, err := checkBlock(data, dirOff, domRef, domRef.size, 1)
			if err != nil {
				return nil, corruptf("domain of column %q: %v", name, err)
			}
			domain, err := decodeDomain(domBlock, domainCount, rows)
			if err != nil {
				return nil, corruptf("domain of column %q: %v", name, err)
			}
			codesBlock, err := checkBlock(data, dirOff, codesRef, uint64(rows)*4, 4)
			if err != nil {
				return nil, corruptf("codes of column %q: %v", name, err)
			}
			// FromBacking range-checks the codes as it counts them.
			coded[name] = &relation.DiscreteIndex{Domain: domain, Codes: decodeCodes(codesBlock, rows)}
			cols = append(cols, relation.Column{Name: name, Kind: relation.Discrete})
		default:
			return nil, corruptf("directory entry %q: unknown column kind %d", name, kind)
		}
	}
	if len(cur.b) != 0 {
		return nil, corruptf("%d trailing bytes after the last directory entry", len(cur.b))
	}

	schema, err := relation.NewSchema(cols...)
	if err != nil {
		return nil, faults.Wrap(faults.ErrBadInput, err)
	}
	rel, err := relation.FromBacking(schema, rows, numeric, nil, coded)
	if err != nil {
		return nil, faults.Wrap(faults.ErrBadInput, err)
	}
	return rel, nil
}

// checkBlock validates one data block reference — inside the data region,
// the exact expected size, aligned, checksum intact — and returns its bytes.
// wantSize of ref.size skips the size equality (domain blocks are
// variable-length; their internal structure is validated by decodeDomain).
func checkBlock(data []byte, dirOff uint64, ref blockRef, wantSize uint64, align uint64) ([]byte, error) {
	if ref.size != wantSize {
		return nil, corruptf("block size %d, want %d", ref.size, wantSize)
	}
	if ref.off < headerSize || ref.off > dirOff || dirOff-ref.off < ref.size {
		return nil, corruptf("block [%d,+%d) outside the data region [%d,%d)", ref.off, ref.size, headerSize, dirOff)
	}
	if align > 1 && ref.off%align != 0 {
		return nil, corruptf("block offset %d not %d-byte aligned", ref.off, align)
	}
	block := data[ref.off : ref.off+ref.size]
	if crc32.ChecksumIEEE(block) != ref.crc {
		return nil, corruptf("block checksum mismatch")
	}
	return block, nil
}

// decodeFloats returns the numeric column backed by block: aliased in place
// when the host byte order and alignment permit, decoded otherwise.
func decodeFloats(block []byte, rows int) []float64 {
	if rows == 0 {
		return []float64{}
	}
	if isLittleEndian && uintptr(unsafe.Pointer(&block[0]))%8 == 0 {
		return unsafe.Slice((*float64)(unsafe.Pointer(&block[0])), rows)
	}
	out := make([]float64, rows)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(block[i*8:]))
	}
	return out
}

// decodeCodes returns the code vector backed by block, aliased when
// possible.
func decodeCodes(block []byte, rows int) []uint32 {
	if rows == 0 {
		return []uint32{}
	}
	if isLittleEndian && uintptr(unsafe.Pointer(&block[0]))%4 == 0 {
		return unsafe.Slice((*uint32)(unsafe.Pointer(&block[0])), rows)
	}
	out := make([]uint32, rows)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(block[i*4:])
	}
	return out
}

// decodeDomain parses a domain block, enforcing the DiscreteIndex
// invariants: the declared count matches, values are strictly ascending
// (sorted and unique), the block is consumed exactly, and the count cannot
// exceed the row count (a domain is the set of values present).
func decodeDomain(block []byte, declared uint32, rows int) ([]string, error) {
	cur := cursor{b: block}
	count, err := cur.uvarint()
	if err != nil {
		return nil, err
	}
	if count != uint64(declared) {
		return nil, corruptf("domain declares %d values in the directory, %d in the block", declared, count)
	}
	if count > uint64(rows) {
		return nil, corruptf("domain of %d values exceeds the %d rows", count, rows)
	}
	domain := make([]string, 0, count)
	for i := uint64(0); i < count; i++ {
		v, err := cur.str()
		if err != nil {
			return nil, err
		}
		if i > 0 && domain[i-1] >= v {
			return nil, corruptf("domain not strictly sorted at value %d", i)
		}
		// Copy out of the (possibly mapped) block: domain strings reach
		// callers (Domain, group keys, a column's strings built from the
		// codes) that may keep them past Close.
		domain = append(domain, string([]byte(v)))
	}
	if len(cur.b) != 0 {
		return nil, corruptf("%d trailing bytes after the last domain value", len(cur.b))
	}
	return domain, nil
}

// cursor is a bounds-checked reader over a byte slice. Every read either
// consumes exactly what it asks for or fails; nothing indexes past the end.
type cursor struct {
	b []byte
}

func (c *cursor) take(n uint64) ([]byte, error) {
	if uint64(len(c.b)) < n {
		return nil, corruptf("truncated: need %d bytes, have %d", n, len(c.b))
	}
	out := c.b[:n]
	c.b = c.b[n:]
	return out, nil
}

func (c *cursor) byte() (byte, error) {
	b, err := c.take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (c *cursor) u32() (uint32, error) {
	b, err := c.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (c *cursor) u64() (uint64, error) {
	b, err := c.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (c *cursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.b)
	if n <= 0 {
		return 0, corruptf("bad uvarint")
	}
	c.b = c.b[n:]
	return v, nil
}

// str reads a uvarint-length-prefixed string. The bytes still alias the
// cursor's backing slice; callers that retain them must copy.
func (c *cursor) str() (string, error) {
	n, err := c.uvarint()
	if err != nil {
		return "", err
	}
	b, err := c.take(n)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func (c *cursor) blockRef() (blockRef, error) {
	off, err := c.u64()
	if err != nil {
		return blockRef{}, err
	}
	size, err := c.u64()
	if err != nil {
		return blockRef{}, err
	}
	crc, err := c.u32()
	if err != nil {
		return blockRef{}, err
	}
	return blockRef{off: off, size: size, crc: crc}, nil
}
