// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#ifndef LPSGD_BASE_BIT_PACKING_H_
#define LPSGD_BASE_BIT_PACKING_H_

#include <cstdint>
#include <vector>

#include "base/thread_annotations.h"

namespace lpsgd {

// Fixed-width bit packing used by the gradient codecs: packs n values of
// `bits_per_value` bits each (1..32) into 32-bit words, mirroring the
// CNTK/QSGD layout where 32/bits quantized values share one C++ unsigned
// integer.
//
// Values are stored little-endian within a word: value i occupies bits
// [(i % per_word) * bits, ...) of word i / per_word. Values never straddle
// words; when bits does not divide 32 the top 32 % bits bits of every word
// are zero padding.
class BitPacker {
 public:
  // `bits_per_value` must be in [1, 32].
  explicit BitPacker(int bits_per_value);

  int bits_per_value() const { return bits_per_value_; }
  int values_per_word() const { return values_per_word_; }

  // Number of 32-bit words needed to store `count` values.
  int64_t WordCount(int64_t count) const;

  // Packs `count` values from `values` into `words`. Each value must fit in
  // `bits_per_value` bits; higher bits must be zero. `words` must hold
  // WordCount(count) words and is fully overwritten.
  void Pack(const uint32_t* values, int64_t count, uint32_t* words) const;

  // Unpacks `count` values from `words` into `values`.
  void Unpack(const uint32_t* words, int64_t count, uint32_t* values) const;

  // Random access read of value `index` from a packed buffer.
  uint32_t Get(const uint32_t* words, int64_t index) const;

 private:
  int bits_per_value_;
  int values_per_word_;
  uint32_t mask_;
};

// Streaming writer producing BitPacker's exact word layout without a
// materialized field array or a second packing pass: the codec hot loops
// quantize each element and Put() it straight into the wire buffer.
//
// `words` must hold BitPacker(bits).WordCount(count) words; every word the
// stream reaches is fully overwritten (padding bits zeroed), so the buffer
// needs no pre-zeroing. Call Finish() once after the last Put() to flush a
// trailing partial word.
class BitWriter {
 public:
  // `bits_per_value` must be in [1, 32].
  BitWriter(uint32_t* words, int bits_per_value);

  // Appends `value` (must fit in bits_per_value bits) as the next field.
  LPSGD_HOT_PATH
  void Put(uint32_t value) {
    current_ |= (value & mask_) << shift_;
    shift_ += bits_;
    if (++in_word_ == per_word_) {
      *words_++ = current_;
      current_ = 0;
      shift_ = 0;
      in_word_ = 0;
    }
  }

  // Flushes a trailing partial word, if any. Idempotent.
  LPSGD_HOT_PATH
  void Finish() {
    if (in_word_ > 0) {
      *words_++ = current_;
      current_ = 0;
      shift_ = 0;
      in_word_ = 0;
    }
  }

  // Bulk-write escape hatch for the SIMD kernels: when the stream is at a
  // word boundary (no partial word pending), whole packed words in the
  // exact Put() layout may be written through cursor(), after which
  // SkipWords() advances the stream past them. Interleaving Put() and
  // cursor() writes without SkipWords() corrupts the stream.
  bool AtWordBoundary() const { return in_word_ == 0; }
  uint32_t* cursor() { return words_; }
  LPSGD_HOT_PATH
  void SkipWords(int64_t count) { words_ += count; }

 private:
  uint32_t* words_;
  int bits_;
  int per_word_;
  uint32_t mask_;
  uint32_t current_ = 0;
  int shift_ = 0;
  int in_word_ = 0;
};

// Streaming counterpart of BitWriter: sequential reads of consecutive
// fields without BitPacker::Get's per-element divide. Reads words lazily,
// so constructing a reader over an empty stream never dereferences it.
class BitReader {
 public:
  // `bits_per_value` must be in [1, 32].
  BitReader(const uint32_t* words, int bits_per_value);

  // Returns the next field in stream order.
  LPSGD_HOT_PATH
  uint32_t Next() {
    if (in_word_ == per_word_) {
      current_ = *words_++;
      shift_ = 0;
      in_word_ = 0;
    }
    const uint32_t value = (current_ >> shift_) & mask_;
    shift_ += bits_;
    ++in_word_;
    return value;
  }

  // Bulk-read escape hatch mirroring BitWriter's: at a word boundary (the
  // next Next() would load a fresh word) the SIMD kernels may consume whole
  // words straight from cursor() and then SkipWords() past them; the reader
  // stays at a boundary afterwards.
  bool AtWordBoundary() const { return in_word_ == per_word_; }
  const uint32_t* cursor() const { return words_; }
  LPSGD_HOT_PATH
  void SkipWords(int64_t count) { words_ += count; }

 private:
  const uint32_t* words_;
  int bits_;
  int per_word_;
  uint32_t mask_;
  uint32_t current_ = 0;
  int shift_ = 0;
  int in_word_;  // initialized to per_word_ so the first Next() loads
};

// Packs a sign bitmap (1 bit per element, bit set when `values[i] >= 0`)
// into 32-bit words; the layout used by the 1bitSGD codec. The raw-pointer
// overload writes (count + 31) / 32 fully-overwritten words.
void PackSignBits(const float* values, int64_t count, uint32_t* words);
void PackSignBits(const float* values, int64_t count,
                  std::vector<uint32_t>* words);

// Reads sign bit `index` from a packed bitmap: true when the original value
// was >= 0.
inline bool SignBitAt(const uint32_t* words, int64_t index) {
  return (words[index >> 5] >> (index & 31)) & 1u;
}

// Sparse index runs (the TopK wire format): k strictly-increasing element
// indices of an n-element gradient, packed at the fixed width
// IndexBitWidth(n) bits each through the BitWriter/BitReader word layout.
// A fixed width keeps the encoded size an exact function of (n, k) — the
// EncodedSizeBytes contract every codec blob must satisfy — while still
// cutting the 32-bit-per-index cost to ceil(log2 n) bits.

// Bits needed to address any element of an n-element buffer (>= 1 so an
// empty field never occurs; n == 1 still packs one 1-bit zero index).
inline int IndexBitWidth(int64_t element_count) {
  int bits = 1;
  while ((int64_t{1} << bits) < element_count) ++bits;
  return bits;
}

// 32-bit words occupied by `count` packed indices of an n-element buffer.
int64_t IndexRunWordCount(int64_t element_count, int64_t count);

// Packs `count` strictly-increasing indices (each < element_count) into
// `words`, which must hold IndexRunWordCount(element_count, count) fully
// overwritten words.
LPSGD_HOT_PATH
inline void PackIndexRun(const int64_t* indices, int64_t count,
                         int64_t element_count, uint32_t* words) {
  BitWriter writer(words, IndexBitWidth(element_count));
  for (int64_t i = 0; i < count; ++i) {
    writer.Put(static_cast<uint32_t>(indices[i]));
  }
  writer.Finish();
}

// Unpacks `count` indices into `indices` and validates the run: every
// index must be < element_count and the run strictly increasing (the
// canonical order PackIndexRun wrote). Returns false on a malformed run —
// the caller must treat the blob as corrupt and not scatter from it.
[[nodiscard]] LPSGD_HOT_PATH inline bool UnpackIndexRun(
    const uint32_t* words, int64_t count, int64_t element_count,
    uint32_t* indices) {
  BitReader reader(words, IndexBitWidth(element_count));
  int64_t previous = -1;
  for (int64_t i = 0; i < count; ++i) {
    const uint32_t index = reader.Next();
    if (static_cast<int64_t>(index) >= element_count ||
        static_cast<int64_t>(index) <= previous) {
      return false;
    }
    indices[i] = index;
    previous = static_cast<int64_t>(index);
  }
  return true;
}

// FNV-1a over 32 bits: the integrity word of the LPCK checkpoint format
// (ckpt/format.cc), whose versioned on-disk layout keeps it. Its loop is
// latency-bound — each byte waits on the previous multiply, about
// 0.59 GB/s on a 2.1 GHz AVX2 core — which suits a cold path only; the
// codecs' wire blobs carry a CRC-32C (ElementwiseKernels::crc32c) instead.
inline constexpr uint32_t kFnv1a32OffsetBasis = 0x811c9dc5u;
inline constexpr uint32_t kFnv1a32Prime = 16777619u;

LPSGD_HOT_PATH
inline uint32_t Fnv1a32(const uint8_t* bytes, int64_t count) {
  uint32_t hash = kFnv1a32OffsetBasis;
  for (int64_t i = 0; i < count; ++i) {
    hash ^= bytes[i];
    hash *= kFnv1a32Prime;
  }
  return hash;
}

}  // namespace lpsgd

#endif  // LPSGD_BASE_BIT_PACKING_H_
