// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#ifndef LPSGD_QUANT_REGISTRY_H_
#define LPSGD_QUANT_REGISTRY_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "base/statusor.h"
#include "quant/codec.h"

namespace lpsgd {

// The parameter list of one codec spec string: everything after the first
// ':', split on commas. The legacy grammar's single positional value
// ("q4:512", "topk:0.01") is accepted as the first token; any token
// containing '=' is a key=value pair ("q4:bucket=512,norm=l2"). Family
// parsers consume the tokens they understand; CodecSpec::Parse rejects
// whatever is left over, naming the offending token and the keys the
// family accepts.
class CodecParams {
 public:
  // Splits `arg` (already lowercased; empty when the spec had no ':').
  // Fails on empty tokens, empty keys/values, a repeated key, or a
  // positional value that is not the first token.
  [[nodiscard]] static StatusOr<CodecParams> Split(const std::string& arg);

  // Consumes and returns the positional value, or "" when none was given.
  std::string TakePositional();
  // Consumes `key` and returns its value, or nullptr when absent.
  const std::string* Take(const std::string& key);

  // Error unless every token was consumed: names the first leftover token
  // and lists `accepted_keys` (the family's vocabulary).
  [[nodiscard]] Status Finish(const std::string& family,
                              const std::vector<std::string>& accepted_keys)
      const;

 private:
  struct Token {
    std::string key;    // empty for the positional value
    std::string value;
    bool consumed = false;
  };
  std::vector<Token> tokens_;
};

// Strict numeric parsers for family param parsers: the whole token must
// parse to an in-range int64 or a finite double, or the error names it
// ("bad <what>: <value>").
[[nodiscard]] StatusOr<int64_t> ParseInt64Param(const std::string& value,
                                                const std::string& what);
[[nodiscard]] StatusOr<double> ParseDoubleParam(const std::string& value,
                                                const std::string& what);

// Consumes a parameter supplied either positionally ("q4:512") or as
// `key=value` ("q4:bucket=512"). Returns "" when neither form was given
// (values are never empty — CodecParams::Split rejects that) and an error
// naming `key` when both were.
[[nodiscard]] StatusOr<std::string> TakeValueOrKey(CodecParams* params,
                                                   const std::string& key);

// Consumes an optional bucket size (positional or bucket=) into
// spec->bucket_size; it must be in [1, 2^31 - 1].
[[nodiscard]] Status TakeBucketParam(CodecParams* params, CodecSpec* spec);

// One codec family's registry entry: everything CodecSpec::Parse / Create /
// Label need, supplied by the codec's own translation unit so the spec
// layer contains no codec-specific branches.
struct CodecFamily {
  CodecKind kind;
  // Canonical grammar head shown in errors and help, e.g. "q<bits>".
  std::string name;
  // One-line grammar summary for CLI help text.
  std::string help;
  // key=value keys the param parser understands (listed in errors).
  std::vector<std::string> keys;
  // True when `head` (lowercased spec text before ':') selects this family.
  std::function<bool(const std::string& head)> matches;
  // Builds a spec from a matched head and its parameters. Unconsumed
  // parameters are rejected by CodecSpec::Parse after this returns.
  std::function<StatusOr<CodecSpec>(const std::string& head,
                                    CodecParams* params)>
      parse;
  // Validates the spec's parameters and instantiates the codec.
  std::function<StatusOr<std::unique_ptr<GradientCodec>>(
      const CodecSpec& spec)>
      create;
  std::function<std::string(const CodecSpec& spec)> label;
  std::function<std::string(const CodecSpec& spec)> short_label;
};

// The `<prefix><bits>[:<bucket>]` family of a QSGD-skeleton codec ("q4",
// "aq8", "nuq4", "ecq4"): a head with bits in [2, 16], an optional
// positive bucket size (positional or bucket=), parse and create errors
// that name `display`, and the labels "<display> <bits>bit (b=<bucket>)"
// and "<short_prefix><bits>". `make_spec` gives a bit width's defaults;
// `make_codec` instantiates a validated spec. Callers may extend the
// returned family (q<bits> adds its norm= and levels= keys).
CodecFamily BitsCodecFamily(
    CodecKind kind, const std::string& prefix, const std::string& display,
    const std::string& short_prefix, std::string help,
    CodecSpec (*make_spec)(int bits),
    std::unique_ptr<GradientCodec> (*make_codec)(const CodecSpec& spec));

// The global codec family table. Families self-register during static
// initialization via CodecRegistrar objects in their translation units;
// codec_internal::kCodecFamilyLinkAnchor (registry.cc) keeps those TUs
// from being dead-stripped out of the static archive.
class CodecRegistry {
 public:
  static CodecRegistry& Global();

  // CHECK-fails on a duplicate kind or name, or a family missing one of
  // its required callbacks — both are registration-time programming errors.
  void Register(CodecFamily family);

  // nullptr when no family matches/is registered.
  const CodecFamily* FindByHead(const std::string& head) const;
  const CodecFamily* FindByKind(CodecKind kind) const;

  // Canonical family names in registration order (error messages, tests).
  std::vector<std::string> Names() const;
  // One "<name>  <help>" grammar line per family, for CLI usage text.
  std::vector<std::string> HelpLines() const;

 private:
  CodecRegistry() = default;
  std::vector<CodecFamily> families_;
};

// Registers `family` during static initialization. Each codec TU defines
// one per family at namespace scope:
//   namespace { const CodecRegistrar registrar(MakeMyFamily()); }
// plus one Link<Name>CodecFamily() anchor referenced from registry.cc.
class CodecRegistrar {
 public:
  explicit CodecRegistrar(CodecFamily family);
};

}  // namespace lpsgd

#endif  // LPSGD_QUANT_REGISTRY_H_
