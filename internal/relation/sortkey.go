package relation

import "math"

// Normalized sort keys: order-preserving int64 encodings of numeric
// values, extracted once per tuple so reducer-side join inner loops
// compare raw integers instead of calling Compare(Value.Add(...), ...)
// per candidate. A condition's key mode (see predicate.CondKeyMode)
// decides which extractor both of its sides use; keys from different
// modes are not comparable with each other.
//
// NULL maps to math.MinInt64, below every proper value, mirroring
// Compare's NULL-sorts-first rule. The encoding cannot distinguish
// NULL from the extreme key itself (int64 math.MinInt64 in int mode, a
// negative NaN in float mode); no workload produces either, and a join
// over data that does treats that value as NULL. Float NaNs are
// unsupported: Compare treats a NaN as equal to everything
// (both orderings fail), which no total-order key can express.

// NullSortKey is the key both extractors assign to NULL values.
const NullSortKey = math.MinInt64

// SortKeyInt returns the order-preserving key of v.Add(off) for
// conditions in integer key mode: both columns of kind int or time,
// integral offsets. The key is the shifted value itself, so key
// comparison is exactly Compare on the shifted values.
func SortKeyInt(v Value, off float64) int64 {
	if v.kind == KindNull {
		return NullSortKey
	}
	return v.Add(off).Int64()
}

// SortKeyFloat returns the order-preserving key of v.Add(off) for
// conditions in float key mode: at least one side float-valued after
// its shift, both numeric. The shifted value is computed exactly as
// Compare would see it (Add's int→float promotion rules included) and
// its float64 bits are remapped so int64 key order equals float order;
// -0 and +0 share a key, matching Compare.
func SortKeyFloat(v Value, off float64) int64 {
	if v.kind == KindNull {
		return NullSortKey
	}
	return floatKeyBits(v.Add(off).Float64())
}

// floatKeyBits is the order-preserving bit remap at the core of
// SortKeyFloat: float order on f equals int64 order on the result,
// with -0 and +0 sharing a key.
func floatKeyBits(f float64) int64 {
	if f == 0 {
		f = 0 // canonicalize -0.0
	}
	u := math.Float64bits(f)
	if u>>63 != 0 {
		u = ^u
	} else {
		u |= 1 << 63
	}
	return int64(u ^ 1<<63)
}
