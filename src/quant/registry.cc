// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "quant/registry.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <utility>

#include "base/logging.h"
#include "base/strings.h"

namespace lpsgd {

StatusOr<CodecParams> CodecParams::Split(const std::string& arg) {
  CodecParams params;
  if (arg.empty()) return params;
  for (const std::string& piece : StrSplit(arg, ',')) {
    if (piece.empty()) {
      return InvalidArgumentError(
          StrCat("empty codec parameter in '", arg, "'"));
    }
    const auto eq = piece.find('=');
    Token token;
    if (eq == std::string::npos) {
      if (!params.tokens_.empty()) {
        return InvalidArgumentError(StrCat(
            "positional codec parameter '", piece,
            "' must come first (after any value, use key=value form)"));
      }
      token.value = piece;
    } else {
      token.key = piece.substr(0, eq);
      token.value = piece.substr(eq + 1);
      if (token.key.empty() || token.value.empty()) {
        return InvalidArgumentError(
            StrCat("malformed codec parameter '", piece,
                   "': expected key=value"));
      }
      for (const Token& existing : params.tokens_) {
        if (existing.key == token.key) {
          return InvalidArgumentError(
              StrCat("repeated codec parameter key '", token.key, "'"));
        }
      }
    }
    params.tokens_.push_back(std::move(token));
  }
  return params;
}

std::string CodecParams::TakePositional() {
  if (!tokens_.empty() && tokens_[0].key.empty() && !tokens_[0].consumed) {
    tokens_[0].consumed = true;
    return tokens_[0].value;
  }
  return "";
}

const std::string* CodecParams::Take(const std::string& key) {
  for (Token& token : tokens_) {
    if (!token.consumed && token.key == key) {
      token.consumed = true;
      return &token.value;
    }
  }
  return nullptr;
}

Status CodecParams::Finish(
    const std::string& family,
    const std::vector<std::string>& accepted_keys) const {
  for (const Token& token : tokens_) {
    if (token.consumed) continue;
    const std::string shown =
        token.key.empty() ? token.value : StrCat(token.key, "=", token.value);
    if (accepted_keys.empty()) {
      return InvalidArgumentError(StrCat("codec '", family,
                                         "' takes no parameters, got '",
                                         shown, "'"));
    }
    return InvalidArgumentError(
        StrCat("unknown parameter '", shown, "' for codec '", family,
               "' (accepted keys: ", StrJoin(accepted_keys, ", "), ")"));
  }
  return OkStatus();
}

StatusOr<int64_t> ParseInt64Param(const std::string& value,
                                  const std::string& what) {
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(value.c_str(), &end, 10);
  if (value.empty() || end == nullptr || *end != '\0' || errno == ERANGE) {
    return InvalidArgumentError(StrCat("bad ", what, ": ", value));
  }
  return static_cast<int64_t>(parsed);
}

StatusOr<double> ParseDoubleParam(const std::string& value,
                                  const std::string& what) {
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (value.empty() || end == nullptr || *end != '\0' ||
      !std::isfinite(parsed)) {
    return InvalidArgumentError(StrCat("bad ", what, ": ", value));
  }
  return parsed;
}

StatusOr<std::string> TakeValueOrKey(CodecParams* params,
                                     const std::string& key) {
  const std::string positional = params->TakePositional();
  const std::string* keyed = params->Take(key);
  if (!positional.empty() && keyed != nullptr) {
    return InvalidArgumentError(
        StrCat("codec parameter '", key,
               "' given both positionally and as ", key, "=", *keyed));
  }
  if (keyed != nullptr) return *keyed;
  return positional;
}

Status TakeBucketParam(CodecParams* params, CodecSpec* spec) {
  LPSGD_ASSIGN_OR_RETURN(const std::string bucket_text,
                         TakeValueOrKey(params, "bucket"));
  if (!bucket_text.empty()) {
    LPSGD_ASSIGN_OR_RETURN(const int64_t bucket,
                           ParseInt64Param(bucket_text, "bucket size"));
    if (bucket <= 0 || bucket > std::numeric_limits<int32_t>::max()) {
      return InvalidArgumentError(StrCat("bad bucket size: ", bucket_text));
    }
    spec->bucket_size = bucket;
  }
  return OkStatus();
}

namespace {

bool MatchesBitsHead(const std::string& head, const std::string& prefix) {
  if (head.size() <= prefix.size() ||
      head.compare(0, prefix.size(), prefix) != 0) {
    return false;
  }
  for (size_t i = prefix.size(); i < head.size(); ++i) {
    if (head[i] < '0' || head[i] > '9') return false;
  }
  return true;
}

StatusOr<int> ParseBitsHead(const std::string& head,
                            const std::string& prefix,
                            const std::string& family) {
  const StatusOr<int64_t> bits =
      ParseInt64Param(head.substr(prefix.size()), "bits");
  if (!bits.ok() || *bits < 2 || *bits > 16) {
    return InvalidArgumentError(StrCat("bad ", family, " bits: ", head));
  }
  return static_cast<int>(*bits);
}

}  // namespace

CodecFamily BitsCodecFamily(
    CodecKind kind, const std::string& prefix, const std::string& display,
    const std::string& short_prefix, std::string help,
    CodecSpec (*make_spec)(int bits),
    std::unique_ptr<GradientCodec> (*make_codec)(const CodecSpec& spec)) {
  CodecFamily family;
  family.kind = kind;
  family.name = StrCat(prefix, "<bits>");
  family.help = std::move(help);
  family.keys = {"bucket"};
  family.matches = [prefix](const std::string& head) {
    return MatchesBitsHead(head, prefix);
  };
  family.parse = [prefix, display, make_spec](
                     const std::string& head,
                     CodecParams* params) -> StatusOr<CodecSpec> {
    LPSGD_ASSIGN_OR_RETURN(const int bits,
                           ParseBitsHead(head, prefix, display));
    CodecSpec spec = make_spec(bits);
    LPSGD_RETURN_IF_ERROR(TakeBucketParam(params, &spec));
    return spec;
  };
  family.create = [display, make_codec](const CodecSpec& spec)
      -> StatusOr<std::unique_ptr<GradientCodec>> {
    if (spec.bits < 2 || spec.bits > 16) {
      return InvalidArgumentError(
          StrCat(display, " bits must be in [2, 16], got ", spec.bits));
    }
    if (spec.bucket_size <= 0) {
      return InvalidArgumentError(StrCat(
          display, " bucket size must be positive, got ", spec.bucket_size));
    }
    return make_codec(spec);
  };
  family.label = [display](const CodecSpec& spec) {
    return StrCat(display, " ", spec.bits, "bit (b=", spec.bucket_size, ")");
  };
  family.short_label = [short_prefix](const CodecSpec& spec) {
    return StrCat(short_prefix, spec.bits);
  };
  return family;
}

CodecRegistry& CodecRegistry::Global() {
  // Leaky singleton: safe to call from any static initializer (the
  // registrars) and never destroyed, so no shutdown-order hazards.
  static CodecRegistry* registry = new CodecRegistry();
  return *registry;
}

void CodecRegistry::Register(CodecFamily family) {
  CHECK(!family.name.empty());
  CHECK(family.matches != nullptr);
  CHECK(family.parse != nullptr);
  CHECK(family.create != nullptr);
  CHECK(family.label != nullptr);
  CHECK(family.short_label != nullptr);
  for (const CodecFamily& existing : families_) {
    CHECK(existing.kind != family.kind);
    CHECK(existing.name != family.name);
  }
  families_.push_back(std::move(family));
}

const CodecFamily* CodecRegistry::FindByHead(const std::string& head) const {
  for (const CodecFamily& family : families_) {
    if (family.matches(head)) return &family;
  }
  return nullptr;
}

const CodecFamily* CodecRegistry::FindByKind(CodecKind kind) const {
  for (const CodecFamily& family : families_) {
    if (family.kind == kind) return &family;
  }
  return nullptr;
}

std::vector<std::string> CodecRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(families_.size());
  for (const CodecFamily& family : families_) names.push_back(family.name);
  return names;
}

std::vector<std::string> CodecRegistry::HelpLines() const {
  std::vector<std::string> lines;
  lines.reserve(families_.size());
  for (const CodecFamily& family : families_) {
    lines.push_back(StrCat(family.name, "  ", family.help));
  }
  return lines;
}

CodecRegistrar::CodecRegistrar(CodecFamily family) {
  CodecRegistry::Global().Register(std::move(family));
}

namespace codec_internal {

// Force-link anchors, one per codec translation unit. After the registry
// redesign nothing in the spec layer names a codec class, so the linker
// would drop the registrar-only archive members entirely; summing the
// anchors from here (registry.cc is always pulled via CodecSpec::Parse)
// keeps every codec TU — and its static CodecRegistrar — in the binary.
int LinkFullPrecisionCodecFamily();
int LinkOneBitSgdCodecFamilies();
int LinkQsgdCodecFamilies();
int LinkAdaptiveQsgdCodecFamily();
int LinkTopKCodecFamily();
int LinkTernGradCodecFamily();

const int kCodecFamilyLinkAnchor =
    LinkFullPrecisionCodecFamily() + LinkOneBitSgdCodecFamilies() +
    LinkQsgdCodecFamilies() + LinkAdaptiveQsgdCodecFamily() +
    LinkTopKCodecFamily() + LinkTernGradCodecFamily();

}  // namespace codec_internal
}  // namespace lpsgd
