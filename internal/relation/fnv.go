package relation

// FNV is a 64-bit FNV-1a hash state, folded byte by byte as hash/fnv's
// New64a computes it but with no interface value and no []byte per
// write. Each method returns the state after its fold, so a hash is
// one chain, NewFNV().U64(id).Byte(salt), and its framing (separators,
// length prefixes) is the caller's. Every FNV-1a hash in the module
// folds through it: the map side and a reducer's ownership check must
// hash a value byte for byte alike.
type FNV uint64

// fnvPrime64Pow8 is fnvPrime64⁸ mod 2⁶⁴.
const (
	fnvOffset64    = 14695981039346656037
	fnvPrime64     = 1099511628211
	fnvPrime64Pow8 = fnvPrime64 * fnvPrime64 * fnvPrime64 * fnvPrime64 * fnvPrime64 * fnvPrime64 * fnvPrime64 * fnvPrime64 & (1<<64 - 1)
)

// NewFNV returns the offset basis: the hash of no bytes.
func NewFNV() FNV { return fnvOffset64 }

// Byte folds one byte.
func (h FNV) Byte(b byte) FNV { return (h ^ FNV(b)) * fnvPrime64 }

// U64 folds the eight little-endian bytes of v. Below 256 the seven
// high bytes are zero, and a zero byte is one multiplication by the
// prime.
func (h FNV) U64(v uint64) FNV {
	if v < 256 {
		return (h ^ FNV(v)) * fnvPrime64Pow8
	}
	for i := 0; i < 8; i++ {
		h = h.Byte(byte(v >> (8 * i)))
	}
	return h
}

// String folds the bytes of s.
func (h FNV) String(s string) FNV { return fnvBytes(h, s) }

// Text folds the bytes of v.String(), rendered into a stack buffer for
// the kinds that are not already a string, so it allocates nothing.
func (h FNV) Text(v Value) FNV {
	if v.kind == KindString {
		return fnvBytes(h, v.Str())
	}
	var scratch [32]byte
	return fnvBytes(h, v.AppendString(scratch[:0]))
}

func fnvBytes[T string | []byte](h FNV, s T) FNV {
	for i := 0; i < len(s); i++ {
		h = h.Byte(s[i])
	}
	return h
}
