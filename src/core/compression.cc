#include "core/compression.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>

#include "util/check.h"
#include "util/string_util.h"

namespace fedra {

CodecStageConfig CodecStageConfig::TopK(double fraction) {
  CodecStageConfig stage;
  stage.kind = CodecStageKind::kTopK;
  stage.fraction = fraction;
  return stage;
}

CodecStageConfig CodecStageConfig::LayerTopK(double fraction) {
  CodecStageConfig stage;
  stage.kind = CodecStageKind::kLayerTopK;
  stage.fraction = fraction;
  return stage;
}

CodecStageConfig CodecStageConfig::Quantize(int bits) {
  CodecStageConfig stage;
  stage.kind = CodecStageKind::kQuantize;
  stage.bits = bits;
  return stage;
}

Status CodecStageConfig::Validate() const {
  switch (kind) {
    case CodecStageKind::kTopK:
    case CodecStageKind::kLayerTopK:
      if (fraction <= 0.0 || fraction > 1.0) {
        return Status::InvalidArgument(
            "codec mask stage fraction must be in (0, 1]");
      }
      return Status::Ok();
    case CodecStageKind::kQuantize:
      if (bits < 2 || bits > 16) {
        return Status::InvalidArgument(
            "codec quantize stage bits must be in [2, 16]");
      }
      return Status::Ok();
  }
  return Status::InvalidArgument("unknown codec stage kind");
}

std::string CodecStageConfig::ToString() const {
  switch (kind) {
    case CodecStageKind::kTopK:
      return StrFormat("top%.3g%%", 100.0 * fraction);
    case CodecStageKind::kLayerTopK:
      return StrFormat("ltop%.3g%%", 100.0 * fraction);
    case CodecStageKind::kQuantize:
      return StrFormat("q%d", bits);
  }
  return "?";
}

CompressionConfig CompressionConfig::None() { return CompressionConfig(); }

CompressionConfig CompressionConfig::Quantize8(bool error_feedback) {
  return Stages({CodecStageConfig::Quantize(8)}, error_feedback);
}

CompressionConfig CompressionConfig::Quantize4(bool error_feedback) {
  return Stages({CodecStageConfig::Quantize(4)}, error_feedback);
}

CompressionConfig CompressionConfig::TopK(double fraction,
                                          bool error_feedback) {
  return Stages({CodecStageConfig::TopK(fraction)}, error_feedback);
}

CompressionConfig CompressionConfig::Stages(
    std::vector<CodecStageConfig> stages, bool error_feedback) {
  CompressionConfig config;
  config.stages = std::move(stages);
  config.error_feedback = error_feedback;
  return config;
}

CompressionConfig CompressionConfig::TopKQuantize(double fraction, int bits,
                                                  bool error_feedback) {
  return Stages({CodecStageConfig::TopK(fraction),
                 CodecStageConfig::Quantize(bits)},
                error_feedback);
}

Status CompressionConfig::Validate() const {
  int first_mask = -1;
  int first_quantize = -1;
  for (size_t i = 0; i < stages.size(); ++i) {
    Status stage_status = stages[i].Validate();
    if (!stage_status.ok()) {
      return stage_status;
    }
    if (stages[i].kind == CodecStageKind::kQuantize) {
      if (first_quantize >= 0) {
        return Status::InvalidArgument(
            "codec pipeline supports at most one quantize stage");
      }
      first_quantize = static_cast<int>(i);
    } else {
      if (first_mask >= 0) {
        return Status::InvalidArgument(
            "codec pipeline supports at most one mask stage");
      }
      first_mask = static_cast<int>(i);
    }
  }
  if (first_mask >= 0 && first_quantize >= 0 && first_quantize < first_mask) {
    return Status::InvalidArgument(
        "codec mask stage must precede the quantize stage");
  }
  return Status::Ok();
}

std::string CompressionConfig::ToString() const {
  if (stages.empty()) {
    return "none";
  }
  std::string out;
  for (size_t i = 0; i < stages.size(); ++i) {
    if (i > 0) {
      out += "+";
    }
    out += stages[i].ToString();
  }
  return out;
}

namespace {

/// Symmetric uniform quantization to `levels` positive steps, in place,
/// over the coordinates `index(0) .. index(count - 1)`. Coordinates outside
/// that set are left alone, which is exact for the ones a mask stage zeroed:
/// +0 adds nothing to the scale and rounds back to +0, so quantizing only
/// the survivors gives the same payload as quantizing the whole vector.
template <typename Index>
void QuantizeInPlace(float* data, size_t count, int bits, Index index) {
  const float levels = static_cast<float>((1 << (bits - 1)) - 1);
  float max_abs = 0.0f;
  for (size_t j = 0; j < count; ++j) {
    max_abs = std::max(max_abs, std::fabs(data[index(j)]));
  }
  if (max_abs == 0.0f) {
    return;
  }
  const float scale = max_abs / levels;
  for (size_t j = 0; j < count; ++j) {
    float& x = data[index(j)];
    x = std::round(x / scale) * scale;
  }
}

/// Magnitude order key: for non-NaN floats, comparing the sign-cleared bit
/// patterns as uint32 orders exactly like std::fabs, and +0/-0 share key 0.
uint32_t MagnitudeKey(float x) {
  uint32_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits & 0x7fffffffu;
}

// The selection histograms the top 11 of the key's 31 bits: the exponent
// and three mantissa bits, so one bucket spans an eighth of an octave.
constexpr int kBucketShift = 20;
constexpr size_t kNumBuckets = size_t{1} << (31 - kBucketShift);

size_t KeptOfRange(double fraction, size_t len) {
  return std::max<size_t>(
      1, static_cast<size_t>(fraction * static_cast<double>(len)));
}

}  // namespace

SyncCompressor::SyncCompressor(const CompressionConfig& config, size_t dim,
                               int num_workers)
    : config_(config), dim_(dim) {
  FEDRA_CHECK_OK(config.Validate());
  FEDRA_CHECK_GT(num_workers, 0);
  const std::vector<CodecStageConfig>& stages = config_.stages;
  for (size_t i = 0; i < stages.size(); ++i) {
    if (stages[i].kind == CodecStageKind::kQuantize) {
      quantize_stage_ = static_cast<int>(i);
    } else {
      mask_stage_ = static_cast<int>(i);
    }
  }
  if (!stages.empty() && config_.error_feedback) {
    residuals_.assign(static_cast<size_t>(num_workers),
                      std::vector<float>(dim, 0.0f));
    original_.resize(dim);
  }
  if (mask_stage_ >= 0) {
    keys_.resize(dim);
    kept_indices_.reserve(dim);
  }
}

void SyncCompressor::SetLayerOffsets(const std::vector<size_t>& offsets,
                                     size_t total) {
  layer_offsets_.clear();
  if (offsets.empty()) {
    return;
  }
  FEDRA_CHECK_EQ(offsets[0], 0u);
  FEDRA_CHECK_EQ(total, dim_);
  for (size_t i = 1; i < offsets.size(); ++i) {
    FEDRA_CHECK_LT(offsets[i - 1], offsets[i]);
  }
  FEDRA_CHECK_LE(offsets.back(), total);
  layer_offsets_ = offsets;
  layer_offsets_.push_back(total);
}

size_t SyncCompressor::KeptCount(size_t n) const {
  if (mask_stage_ < 0) {
    return n;
  }
  const CodecStageConfig& mask =
      config_.stages[static_cast<size_t>(mask_stage_)];
  if (mask.kind == CodecStageKind::kLayerTopK &&
      layer_offsets_.size() >= 2 && n == dim_) {
    size_t kept = 0;
    for (size_t b = 0; b + 1 < layer_offsets_.size(); ++b) {
      const size_t len = layer_offsets_[b + 1] - layer_offsets_[b];
      if (len == 0) {
        continue;
      }
      kept += std::min(len, KeptOfRange(mask.fraction, len));
    }
    return kept;
  }
  return std::min(n, KeptOfRange(mask.fraction, n));
}

size_t SyncCompressor::WireBytes(size_t n) const {
  if (config_.stages.empty()) {
    return n * sizeof(float);
  }
  const size_t kept = KeptCount(n);
  const size_t bits =
      quantize_stage_ >= 0
          ? static_cast<size_t>(
                config_.stages[static_cast<size_t>(quantize_stage_)].bits)
          : 8 * sizeof(float);
  size_t bytes = (kept * bits + 7) / 8;
  if (mask_stage_ >= 0) {
    bytes += kept * sizeof(uint32_t);  // coordinate indices
  }
  if (quantize_stage_ >= 0) {
    bytes += sizeof(float);  // the scale
  }
  return bytes;
}

void SyncCompressor::EnsureScratch(size_t n) {
  bool grew = false;
  if (!residuals_.empty() && original_.size() < n) {
    original_.resize(n);
    grew = true;
  }
  if (mask_stage_ >= 0 && keys_.size() < n) {
    keys_.resize(n);
    kept_indices_.reserve(n);
    grew = true;
  }
  if (grew) {
    ++scratch_reallocs_;
  }
}

void SyncCompressor::SelectRangeTopK(const float* data, size_t begin,
                                     size_t len, size_t kept, uint32_t* out) {
  const float* x = data + begin;
  // 1. Histogram the keys' top bits; walk down from the largest key's
  //    bucket (not the top one: a short range then costs O(len), not
  //    O(buckets)) to the bucket holding the kept-th largest key.
  uint32_t hist[kNumBuckets] = {};
  uint32_t max_key = 0;
  for (size_t i = 0; i < len; ++i) {
    const uint32_t key = MagnitudeKey(x[i]);
    ++hist[key >> kBucketShift];
    max_key = std::max(max_key, key);
  }
  size_t bucket = max_key >> kBucketShift;
  size_t above = 0;  // keys in the buckets above `bucket`
  while (above + hist[bucket] < kept) {
    above += hist[bucket];
    --bucket;
  }
  // 2. One ascending scan collects the candidates: every index whose key
  //    lies in that bucket or above. Each index is stored at
  //    out[candidates] and only candidates advance the count, so the scan
  //    does not branch on the data, and no store goes past out[len - 1].
  const uint32_t bucket_floor = static_cast<uint32_t>(bucket)
                                << kBucketShift;
  size_t candidates = 0;
  for (size_t i = 0; i < len; ++i) {
    out[candidates] = static_cast<uint32_t>(begin + i);
    candidates += static_cast<size_t>(MagnitudeKey(x[i]) >= bucket_floor);
  }
  // 3. The threshold key T is the (kept - above)-th largest key of the
  //    bucket: nth_element runs on the bucket's keys alone. `ties` is how
  //    many of the kept keys equal T.
  uint32_t* keys = keys_.data();
  size_t in_bucket = 0;
  for (size_t j = 0; j < candidates; ++j) {
    const uint32_t key = MagnitudeKey(data[out[j]]);
    keys[in_bucket] = key;
    in_bucket += static_cast<size_t>((key >> kBucketShift) == bucket);
  }
  const size_t rank = kept - above - 1;
  std::nth_element(keys, keys + rank, keys + in_bucket,
                   std::greater<uint32_t>());
  const uint32_t threshold = keys[rank];
  size_t ties =
      1 + static_cast<size_t>(std::count(keys, keys + rank, threshold));
  // 4. Keep the candidates above T and the first `ties` equal to it:
  //    magnitude descending with an ascending-index tie-break, compacted
  //    in place and already sorted.
  size_t count = 0;
  for (size_t j = 0; j < candidates; ++j) {
    const uint32_t index = out[j];
    const uint32_t key = MagnitudeKey(data[index]);
    const bool tie = key == threshold && ties > 0;
    out[count] = index;
    count += static_cast<size_t>(key > threshold || tie);
    ties -= static_cast<size_t>(tie);
  }
}

size_t SyncCompressor::SelectMask(const CodecStageConfig& stage,
                                  const float* data, size_t n) {
  // Capacity is reserved to dim: the resize never allocates.
  kept_indices_.resize(n);
  uint32_t* out = kept_indices_.data();
  size_t count = 0;
  if (stage.kind == CodecStageKind::kLayerTopK &&
      layer_offsets_.size() >= 2 && n == dim_) {
    for (size_t b = 0; b + 1 < layer_offsets_.size(); ++b) {
      const size_t begin = layer_offsets_[b];
      const size_t len = layer_offsets_[b + 1] - begin;
      if (len == 0) {
        continue;
      }
      const size_t kept = std::min(len, KeptOfRange(stage.fraction, len));
      SelectRangeTopK(data, begin, len, kept, out + count);
      count += kept;
    }
  } else {
    count = std::min(n, KeptOfRange(stage.fraction, n));
    SelectRangeTopK(data, 0, n, count, out);
  }
  kept_indices_.resize(count);
  return count;
}

size_t SyncCompressor::MaskPreview(const float* data, size_t n) {
  FEDRA_CHECK_EQ(n, dim_);
  kept_indices_.clear();
  if (mask_stage_ < 0) {
    return n;
  }
  EnsureScratch(n);
  return SelectMask(config_.stages[static_cast<size_t>(mask_stage_)], data,
                    n);
}

size_t SyncCompressor::CompressInPlace(int worker, float* data, size_t n) {
  FEDRA_CHECK_EQ(n, dim_);
  if (config_.stages.empty()) {
    return WireBytes(n);
  }
  EnsureScratch(n);
  float* residual = nullptr;
  if (config_.error_feedback) {
    FEDRA_CHECK_LT(static_cast<size_t>(worker), residuals_.size());
    residual = residuals_[static_cast<size_t>(worker)].data();
    // EF: compress (input + carried residual).
    for (size_t i = 0; i < n; ++i) {
      data[i] += residual[i];
    }
    // Keep the pre-compression payload to compute the new residual.
    std::copy(data, data + n, original_.begin());
  }
  kept_indices_.clear();
  for (const CodecStageConfig& stage : config_.stages) {
    switch (stage.kind) {
      case CodecStageKind::kTopK:
      case CodecStageKind::kLayerTopK: {
        SelectMask(stage, data, n);
        size_t next = 0;  // zero the gaps between kept coordinates
        for (uint32_t kept : kept_indices_) {
          std::fill(data + next, data + kept, 0.0f);
          next = kept + 1;
        }
        std::fill(data + next, data + n, 0.0f);
        break;
      }
      case CodecStageKind::kQuantize:
        if (mask_stage_ >= 0) {
          const uint32_t* kept = kept_indices_.data();
          QuantizeInPlace(data, kept_indices_.size(), stage.bits,
                          [kept](size_t j) { return kept[j]; });
        } else {
          QuantizeInPlace(data, n, stage.bits, [](size_t i) { return i; });
        }
        break;
    }
  }
  if (residual != nullptr) {
    for (size_t i = 0; i < n; ++i) {
      residual[i] = original_[i] - data[i];
    }
  }
  return WireBytes(n);
}

double SyncCompressor::ResidualEnergy(int worker) const {
  if (residuals_.empty()) {
    return 0.0;
  }
  FEDRA_CHECK_LT(static_cast<size_t>(worker), residuals_.size());
  double energy = 0.0;
  for (float r : residuals_[static_cast<size_t>(worker)]) {
    energy += static_cast<double>(r) * r;
  }
  return energy;
}

float* SyncCompressor::ResidualData(int worker) {
  if (residuals_.empty()) {
    return nullptr;
  }
  FEDRA_CHECK_LT(static_cast<size_t>(worker), residuals_.size());
  return residuals_[static_cast<size_t>(worker)].data();
}

const float* SyncCompressor::ResidualData(int worker) const {
  if (residuals_.empty()) {
    return nullptr;
  }
  FEDRA_CHECK_LT(static_cast<size_t>(worker), residuals_.size());
  return residuals_[static_cast<size_t>(worker)].data();
}

void SyncCompressor::ResetWorker(int worker) {
  if (residuals_.empty()) {
    return;
  }
  FEDRA_CHECK_LT(static_cast<size_t>(worker), residuals_.size());
  std::fill(residuals_[static_cast<size_t>(worker)].begin(),
            residuals_[static_cast<size_t>(worker)].end(), 0.0f);
}

void SyncCompressor::Reset() {
  for (auto& residual : residuals_) {
    std::fill(residual.begin(), residual.end(), 0.0f);
  }
}

}  // namespace fedra
