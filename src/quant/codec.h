// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#ifndef LPSGD_QUANT_CODEC_H_
#define LPSGD_QUANT_CODEC_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "base/statusor.h"
#include "obs/span.h"
#include "tensor/shape.h"

namespace lpsgd {

struct CodecWorkspace;  // quant/workspace.h

// A gradient compression codec: the Encode/Decode pair of Algorithm 1.
//
// Encode consumes one gradient matrix (flat fp32 buffer interpreted through
// its CNTK quantization shape, Section 3.2.1) and produces a wire blob;
// Decode reconstructs an approximate gradient. Codecs are stateless —
// error-feedback residuals (1bitSGD, 1bitSGD*, ECQ-SGD, TopK) are owned by
// the caller, one per (rank, matrix), and passed in; stochastic codecs
// (QSGD) derive their randomness from the caller-provided `stochastic_tag`
// so runs are exactly reproducible.
//
// Every codec implements one range pair, QuantizeRange/DecodeRange, over a
// contiguous run of flat elements; EncodeRange, Encode and Decode are
// compositions of it written once here. Error feedback is one stage of
// EncodeRange, the same for every codec: it quantizes c = g + e and
// carries e <- c - Q(c) (Wu et al.'s ECQ-SGD rule, and 1bitSGD's carried
// error), so no codec touches a residual itself. Bucketed codecs accept
// any RangeAlignment-aligned range, which lets the MPI exchange split a
// matrix into independent tiles (DESIGN.md §7 "Range-split exchange");
// codecs whose blob depends on the whole matrix accept only the full
// range.
class GradientCodec {
 public:
  virtual ~GradientCodec() = default;

  // Short display label, e.g. "QSGD 4bit" or "1bitSGD*".
  virtual std::string Name() const = 0;

  // Stable snake_case identifier, e.g. "qsgd": names the codec's
  // quant/<id>/{encode,decode}_calls counters and prefixes its wire-error
  // messages.
  std::string_view MetricName() const { return metric_name_; }

  // Exact wire size in bytes of an encoded gradient with shape `shape`.
  virtual int64_t EncodedSizeBytes(const Shape& shape) const = 0;

  // Number of independently-scaled chunks (columns or buckets) the codec
  // produces for `shape`; drives the GPU kernel-launch cost model. Zero for
  // the identity codec.
  virtual int64_t NumChunks(const Shape& shape) const = 0;

  // True when the codec maintains an error-feedback residual; the caller
  // must then pass a persistent, zero-initialized `error` buffer of
  // shape.element_count() floats to every Encode call. Fixed at
  // construction: the families that honour CodecSpec::error_feedback
  // pass it to the constructor, every other codec passes false.
  bool UsesErrorFeedback() const { return error_feedback_; }

  // Encodes `grad` (shape.element_count() floats). `error` may be null for
  // codecs without error feedback. `workspace` provides reusable scratch
  // and must not be null or shared across concurrent calls; `out` is
  // overwritten (its capacity is reused). Output bytes are a pure function
  // of (grad, shape, stochastic_tag, error) — never of the workspace's
  // prior contents. The last codec_internal::kWireChecksumBytes of the
  // blob are the CRC-32C of everything before them (the trailing integrity
  // word Decode verifies).
  //
  // Sizes `out`, runs EncodeRange over [0, n), and seals the blob.
  void Encode(const float* grad, const Shape& shape, uint64_t stochastic_tag,
              std::vector<float>* error, CodecWorkspace* workspace,
              std::vector<uint8_t>* out) const;

  // Decodes `bytes` into `out` (shape.element_count() floats, overwritten).
  // Same workspace contract as Encode. Returns a DataLoss Status — and
  // leaves `out` untouched — when the blob is mis-sized (truncated,
  // zero-length, padded) or its trailing integrity word does not match the
  // payload: a corrupted exchange surfaces as an error instead of decoding
  // into garbage gradients.
  //
  // Verifies the blob, then runs DecodeRange over [0, n).
  Status Decode(const uint8_t* bytes, int64_t num_bytes, const Shape& shape,
                CodecWorkspace* workspace, float* out) const;

  // Range contract. Split granularity for `shape`: a range [begin, end)
  // is valid when begin is a multiple of the alignment and end is a
  // multiple of it or shape.element_count(). Each valid range covers
  // whole buckets and starts on a packed-word boundary, so its wire bytes
  // (bucket scales and packed fields) are disjoint from every other
  // range's. 0 when the blob cannot be split — per-matrix statistics or a
  // per-column layout — and the only valid range is [0, n).
  //
  // The range calls are range-relative: every float buffer they take for
  // the range (EncodeRange's `grad` and `decoded`, DecodeRange's `out`,
  // QuantizeRange's `grad`) points at element `begin` and holds exactly
  // end - begin floats. Only the stochastic-stream index, the bucket
  // index, the bit position in a bitmap and the wire offset stay absolute,
  // plus EncodeRange's `error`, which is the whole residual.
  virtual int64_t RangeAlignment(const Shape& shape) const = 0;

  // Writes exactly the wire bytes of elements [begin, end) into `blob`,
  // which must already be EncodedSizeBytes(shape) long; bytes of other
  // ranges and the integrity word are left untouched. Reads the range's
  // gradient from `grad` and reads/updates (*error)[i] for i in
  // [begin, end) only; the stochastic stream is indexed by absolute
  // element, so encoding the ranges of any partition in any order (then
  // sealing) reproduces Encode's bytes and residuals exactly. Same
  // workspace contract as Encode.
  //
  // `decoded`, when not null, receives Q over the range: exactly what
  // DecodeRange of the finished blob writes there. The MPI exchange passes
  // the broadcast's destination, so each aggregate tile is decoded once.
  //
  // Without error feedback this is QuantizeRange on `grad`, then
  // DecodeRange into `decoded` when it is set. With it, the error-feedback
  // stage runs here, for every codec alike: it stages c = grad + error
  // over the range into workspace->ef_corrected, runs QuantizeRange on c,
  // decodes the range into `decoded` (into the residual's range when
  // `decoded` is null) and sets error[i] = c[i] - Q(c)[i]. The blob and
  // residual are therefore exactly those of the EF-free codec on c
  // followed by c - Decode (tests/quant/error_feedback_test.cc). c - d is
  // -0.0 only when c is, and c = g + e only when e is, so a residual that
  // starts zeroed never holds -0.0 and a zero-scale bucket leaves +0.0
  // behind.
  void EncodeRange(const float* grad, const Shape& shape,
                   uint64_t stochastic_tag, std::vector<float>* error,
                   int64_t begin, int64_t end, CodecWorkspace* workspace,
                   uint8_t* blob, float* decoded) const;

  // Decodes elements [begin, end) of a blob into `out`, which points at
  // element `begin`; nothing outside the range's end - begin floats is
  // written. Does not check the blob's size or integrity word: the caller
  // must have verified it (Decode does, via
  // codec_internal::VerifyWireBlob). Codecs
  // whose payload carries framing fields (TopK's count and index run)
  // still validate them and return DataLoss, leaving `out` untouched.
  virtual Status DecodeRange(const uint8_t* blob, const Shape& shape,
                             int64_t begin, int64_t end,
                             CodecWorkspace* workspace, float* out) const = 0;

  // Sparse wire support. A sparse codec (TopK) transmits (index, value)
  // pairs; SparseCount returns how many pairs a blob for `shape` carries —
  // exactly, as a pure function of the shape — and 0 for dense codecs.
  virtual int64_t SparseCount(const Shape& /*shape*/) const { return 0; }

  // Decodes a sparse blob into caller-provided arrays of
  // SparseCount(shape) entries each: strictly-increasing element indices
  // and their values. Lets the aggregators scatter-add K blobs without
  // materializing K dense buffers. Same integrity contract as Decode
  // (DataLoss on a mis-sized or tampered blob, outputs untouched). The
  // default fails: dense codecs have no sparse representation.
  virtual Status DecodeSparse(const uint8_t* bytes, int64_t num_bytes,
                              const Shape& shape, CodecWorkspace* workspace,
                              uint32_t* indices, float* values) const;

 protected:
  // `metric_name` must be a string literal; the codec's counter names are
  // formed from it here, once, not per call. `error_feedback` switches on
  // EncodeRange's error-feedback stage.
  explicit GradientCodec(std::string_view metric_name,
                         bool error_feedback = false);

  // Bumps quant/<id>/decode_calls: once per decode entry point call
  // (Decode, TopK's DecodeSparse), while metrics are enabled.
  void CountDecode() const;

 private:
  // The codec's own encode: writes the wire bytes of elements
  // [begin, end), read from `grad` (which points at element `begin`),
  // under EncodeRange's range and workspace contract, without error
  // feedback (EncodeRange stages the corrected values and refreshes the
  // residual around it).
  virtual void QuantizeRange(const float* grad, const Shape& shape,
                             uint64_t stochastic_tag, int64_t begin,
                             int64_t end, CodecWorkspace* workspace,
                             uint8_t* blob) const = 0;

  std::string_view metric_name_;
  bool error_feedback_;
  std::string encode_calls_metric_;
  std::string decode_calls_metric_;
};

enum class CodecKind {
  kFullPrecision,
  kOneBitSgd,          // CNTK stock per-column variant
  kOneBitSgdReshaped,  // 1bitSGD* (bucketed)
  kQsgd,
  kQsgdAdaptive,       // ZipML-style data-adaptive levels (Section 2.3)
  kTopK,               // sparsification (Aji & Heafield; Section 7)
  kTernGrad,           // ternary with layer-wise scalar (Wen et al.)
  kNuqsgd,             // nonuniform exponential levels (Ramezani-Kebrya)
  kEcqSgd,             // error-compensated QSGD
};

// QSGD scaling-factor choice (Section 3.2.2): 2-norm yields sparser
// quantized vectors; the max (infinity) norm introduces less variance and
// gave the paper better accuracy.
enum class QsgdNorm { kL2, kMax };

// QSGD level placement (Section 3.2.2): sign-magnitude keeps one sign bit
// plus magnitude levels in [0, 1]; symmetric spreads 2^bits - 1 levels over
// [-scale, +scale].
enum class QsgdLevelScheme { kSignMagnitude, kSymmetric };

// Full description of a communication precision configuration.
struct CodecSpec {
  CodecKind kind = CodecKind::kFullPrecision;
  // Wire field width of the bit-width families: q, aq, nuq and ecq take
  // [2, 16]; TernGrad is fixed at 2.
  int bits = 32;
  // Elements per independently-scaled bucket: q, aq, nuq, ecq and 1bitSGD*
  // (positive); TernGrad (0 = one scalar per matrix).
  int64_t bucket_size = 512;
  QsgdNorm norm = QsgdNorm::kMax;  // q only (nuq is L2, ecq max)
  QsgdLevelScheme levels = QsgdLevelScheme::kSignMagnitude;  // q only
  double density = 0.01;        // TopK only: fraction of components sent
  // TernGrad only: gradient clipping threshold as a multiple of the chunk's
  // standard deviation (Wen et al. Section 4); 0 disables clipping.
  double clip = 0.0;
  // Ablation switch for the error-feedback stage (GradientCodec::
  // EncodeRange). Only 1bitSGD, 1bitSGD*, ECQ-SGD and TopK honour it;
  // every other family runs without error feedback.
  bool error_feedback = true;
  uint64_t seed = 0x95bd0b1f2c3d4e5fULL;

  // Parses a human-friendly codec description, as accepted by the CLI
  // tools, by dispatching on the registered codec families
  // (quant/registry.h). Grammar (case-insensitive):
  //   "32bit" | "fp32"                      full precision
  //   "1bit"  | "1bitsgd"                   stock per-column 1bitSGD
  //   "1bit*" | "1bitsgd*"                  reshaped, default bucket 64
  //   "1bit*:<bucket>"                      reshaped with explicit bucket
  //   "q<bits>"                             QSGD with the paper bucket size
  //   "q<bits>:<bucket>"                    QSGD with explicit bucket
  //   "topk:<density>"                      TopK, density in (0, 1]
  //   "aq<bits>[:<bucket>]"                 adaptive-levels QSGD
  //   "nuq<bits>[:<bucket>]"                nonuniform-levels QSGD
  //   "ecq<bits>[:<bucket>]"                error-compensated QSGD
  //   "terngrad" | "tern"                   ternary, per-matrix scalar
  // Every family also accepts comma-separated key=value parameters after
  // the ':' in place of the positional value, e.g. "q4:bucket=512,norm=l2"
  // or "terngrad:bucket=1024,clip=2.5"; unknown codecs and malformed
  // parameters are rejected with the offending token named and the
  // registered names/keys listed.
  [[nodiscard]] static StatusOr<CodecSpec> Parse(const std::string& text);

  // Instantiates the codec this spec describes via the family registry;
  // fails on out-of-range parameters (bits, bucket size, density).
  [[nodiscard]] StatusOr<std::unique_ptr<GradientCodec>> Create() const;

  // "32bit", "QSGD 4bit (b=512)", "1bitSGD", "1bitSGD* (b=64)", ...
  std::string Label() const;
  // Compact label used in the paper's tables: "32bit", "Q4", "1b", "1b*".
  std::string ShortLabel() const;
};

// The precision configurations of the paper's performance figures, with
// the accuracy-preserving bucket sizes from Section 4.4: QSGD 2bit/128,
// 4bit/512, 8bit/512, 16bit/8192, 1bitSGD* /64.
CodecSpec FullPrecisionSpec();
CodecSpec QsgdSpec(int bits);             // paper bucket size for `bits`
CodecSpec OneBitSgdSpec();                // stock CNTK variant
CodecSpec OneBitSgdReshapedSpec(int64_t bucket_size = 64);
CodecSpec TopKSpec(double density);       // sparse communication
CodecSpec AdaptiveQsgdSpec(int bits);     // quantile-placed levels
// bucket_size 0 = one scalar per matrix (the paper's layer-wise scaling);
// clip > 0 clamps gradients at clip * sigma before scaling.
CodecSpec TernGradSpec(int64_t bucket_size = 0, double clip = 0.0);
CodecSpec NuqsgdSpec(int bits);           // exponential levels, L2 norm
CodecSpec EcqSgdSpec(int bits);           // QSGD + error feedback

namespace codec_internal {

// The spans of every codec Encode and decode entry point: the encode and
// decode profile phases and the quant/{encode,decode}_seconds histograms.
inline constexpr obs::SpanSite kEncodeSpan{"quant/encode", obs::kPhaseEncode,
                                           "quant/encode_seconds"};
inline constexpr obs::SpanSite kDecodeSpan{"quant/decode", obs::kPhaseDecode,
                                           "quant/decode_seconds"};

// Every encoded blob ends with a trailing integrity word: the little-endian
// CRC-32C (Castagnoli; ElementwiseKernels::crc32c in base/simd) of all
// payload bytes before it. It rejects every error burst of up to 32 bits
// (single-bit flips included) and an all-zero blob.
// EncodedSizeBytes already includes it.
inline constexpr int64_t kWireChecksumBytes =
    static_cast<int64_t>(sizeof(uint32_t));

// Writes the trailing integrity word over blob[payload_bytes, +4). Called
// by every Encode after the payload is complete.
void SealWireBlob(uint8_t* blob, int64_t payload_bytes);

// RangeAlignment of a bucketed codec whose fields are `bits` wide and
// packed BitPacker-style: lcm(bucket_size, 32 / bits), so a range covers
// whole buckets and starts on a packed-word boundary.
int64_t BucketRangeAlignment(int64_t bucket_size, int bits);

// Validates an encoded blob's framing and integrity before decoding:
// `num_bytes` must equal `expected_bytes` (the codec's EncodedSizeBytes for
// the shape, checksum included) and the trailing word must match the
// payload's CRC-32C. Violations return DataLoss and bump the
// comm/checksum_failures counter; the blob must not be decoded.
[[nodiscard]] Status VerifyWireBlob(std::string_view codec,
                                    const uint8_t* bytes, int64_t num_bytes,
                                    int64_t expected_bytes);

// Wire-format helpers shared by codec implementations.
const float* FloatsAt(const uint8_t* bytes, int64_t offset_bytes);
const uint32_t* WordsAt(const uint8_t* bytes, int64_t offset_bytes);
float* MutableFloatsAt(uint8_t* bytes, int64_t offset_bytes);
uint32_t* MutableWordsAt(uint8_t* bytes, int64_t offset_bytes);

}  // namespace codec_internal

}  // namespace lpsgd

#endif  // LPSGD_QUANT_CODEC_H_
