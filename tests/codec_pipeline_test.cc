// WireCodec stage-pipeline tests: per-stage wire-size goldens, round-trip
// composition, deterministic tie-breaking, the mask selection against a
// full-sort reference, allocation-free hot path, error-feedback residual
// paging through ClientStateStore (fleet rotation), payload-carrying subset
// billing, and the compressed-hierarchy composition the pipeline unlocked.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "core/algorithms.h"
#include "core/client_store.h"
#include "core/compression.h"
#include "core/fda_policy.h"
#include "data/synth.h"
#include "nn/zoo.h"
#include "sim/collectives.h"
#include "sim/topology_tree.h"
#include "tensor/vec_ops.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace fedra {
namespace {

std::vector<float> RandomVec(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) {
    x = rng.NextGaussian(0.0f, 1.0f);
  }
  return v;
}

// ----------------------------------------------------------- stage configs

TEST(CodecStageTest, FactoriesValidateAndPrint) {
  EXPECT_TRUE(CodecStageConfig::TopK(0.05).Validate().ok());
  EXPECT_TRUE(CodecStageConfig::LayerTopK(0.1).Validate().ok());
  EXPECT_TRUE(CodecStageConfig::Quantize(8).Validate().ok());
  EXPECT_FALSE(CodecStageConfig::TopK(0.0).Validate().ok());
  EXPECT_FALSE(CodecStageConfig::TopK(1.5).Validate().ok());
  EXPECT_FALSE(CodecStageConfig::Quantize(1).Validate().ok());
  EXPECT_FALSE(CodecStageConfig::Quantize(17).Validate().ok());
  EXPECT_EQ(CompressionConfig::TopKQuantize(0.05, 8).ToString(), "top5%+q8");
}

TEST(CodecStageTest, PipelineValidationRules) {
  // A one-stage factory is an ordinary pipeline: appending a mask after
  // its quantize stage breaks mask-before-quantize.
  CompressionConfig mixed = CompressionConfig::Quantize8();
  mixed.stages.push_back(CodecStageConfig::TopK(0.1));
  EXPECT_FALSE(mixed.Validate().ok());
  // At most one mask stage.
  EXPECT_FALSE(CompressionConfig::Stages({CodecStageConfig::TopK(0.1),
                                          CodecStageConfig::LayerTopK(0.1)})
                   .Validate()
                   .ok());
  // At most one quantize stage.
  EXPECT_FALSE(CompressionConfig::Stages({CodecStageConfig::Quantize(8),
                                          CodecStageConfig::Quantize(4)})
                   .Validate()
                   .ok());
  // Mask must precede quantize (quantize-then-mask would re-rank on
  // already-rounded magnitudes).
  EXPECT_FALSE(CompressionConfig::Stages({CodecStageConfig::Quantize(8),
                                          CodecStageConfig::TopK(0.1)})
                   .Validate()
                   .ok());
  EXPECT_TRUE(CompressionConfig::Stages({CodecStageConfig::TopK(0.1),
                                         CodecStageConfig::Quantize(8)})
                  .Validate()
                  .ok());
}

TEST(CodecStageTest, NoneStaysDisabledAndStagePipelinesEnable) {
  EXPECT_FALSE(CompressionConfig::None().enabled());
  EXPECT_TRUE(CompressionConfig::Quantize8().enabled());
  EXPECT_TRUE(
      CompressionConfig::Stages({CodecStageConfig::TopK(0.1)}).enabled());
}

// ------------------------------------------------------- wire-size goldens

TEST(CodecWireTest, StageGoldensMatchWireModel) {
  const size_t n = 10000;
  // Stacked top-5% + q8: 500 kept * (4 index + 1 value) + 4 scale bytes.
  SyncCompressor stack(CompressionConfig::TopKQuantize(0.05, 8), n, 1);
  EXPECT_EQ(stack.WireBytes(n), 500u * 4u + 500u + 4u);
  // Top-5% + q4: values pack two per byte.
  SyncCompressor stack4(CompressionConfig::TopKQuantize(0.05, 4), n, 1);
  EXPECT_EQ(stack4.WireBytes(n), 500u * 4u + 250u + 4u);
  // Single-stage pipelines reproduce the historical single-codec sizes.
  SyncCompressor q8(
      CompressionConfig::Stages({CodecStageConfig::Quantize(8)}), n, 1);
  EXPECT_EQ(q8.WireBytes(n), n + 4u);
  SyncCompressor q4(
      CompressionConfig::Stages({CodecStageConfig::Quantize(4)}), n, 1);
  EXPECT_EQ(q4.WireBytes(n), (n + 1u) / 2u + 4u);
  SyncCompressor topk(
      CompressionConfig::Stages({CodecStageConfig::TopK(0.05)}), n, 1);
  EXPECT_EQ(topk.WireBytes(n), 500u * 8u);
  // ...and equal the one-stage factories byte for byte.
  SyncCompressor legacy_q4(CompressionConfig::Quantize4(), n, 1);
  EXPECT_EQ(q4.WireBytes(n), legacy_q4.WireBytes(n));
  SyncCompressor legacy_topk(CompressionConfig::TopK(0.05), n, 1);
  EXPECT_EQ(topk.WireBytes(n), legacy_topk.WireBytes(n));
}

TEST(CodecWireTest, CompressInPlaceReturnsWireBytes) {
  const size_t n = 512;
  SyncCompressor stack(CompressionConfig::TopKQuantize(0.1, 8), n, 1);
  auto v = RandomVec(n, 11);
  EXPECT_EQ(stack.CompressInPlace(0, v.data(), n), stack.WireBytes(n));
}

// -------------------------------------------------------- stage round-trip

TEST(CodecPipelineTest, TopKThenQuantizeComposes) {
  const size_t n = 1000;
  auto v = RandomVec(n, 12);
  auto original = v;
  SyncCompressor stack(CompressionConfig::TopKQuantize(0.05, 8, false), n, 1);
  stack.CompressInPlace(0, v.data(), n);
  // The mask keeps exactly 50 coordinates; quantization must not densify
  // (zeros stay zero), so the payload is still 50-sparse.
  size_t nonzero = 0;
  float max_kept = 0.0f;
  for (size_t i = 0; i < n; ++i) {
    if (v[i] != 0.0f) {
      ++nonzero;
      max_kept = std::max(max_kept, std::fabs(original[i]));
    }
  }
  EXPECT_LE(nonzero, 50u);
  EXPECT_GT(nonzero, 0u);
  // Survivors are quantized to the 8-bit grid of the masked vector's max.
  const float step = max_kept / 127.0f;
  for (size_t i = 0; i < n; ++i) {
    if (v[i] != 0.0f) {
      EXPECT_LE(std::fabs(v[i] - original[i]), 0.5f * step + 1e-6f);
    }
  }
}

TEST(CodecPipelineTest, LayerTopKKeepsEveryLayerAlive) {
  // Two 8-float layers; all the magnitude lives in layer 0. Global top-25%
  // would starve layer 1 entirely — layer-wise keeps 2 from each.
  const size_t n = 16;
  std::vector<float> v(n, 0.0f);
  for (size_t i = 0; i < 8; ++i) {
    v[i] = 10.0f + static_cast<float>(i);
  }
  for (size_t i = 8; i < 16; ++i) {
    v[i] = 0.01f * static_cast<float>(i - 7);
  }
  SyncCompressor codec(
      CompressionConfig::Stages({CodecStageConfig::LayerTopK(0.25)}), n, 1);
  codec.SetLayerOffsets({0, 8}, n);
  auto payload = v;
  codec.CompressInPlace(0, payload.data(), n);
  size_t kept_head = 0;
  size_t kept_tail = 0;
  for (size_t i = 0; i < 8; ++i) {
    kept_head += payload[i] != 0.0f;
  }
  for (size_t i = 8; i < 16; ++i) {
    kept_tail += payload[i] != 0.0f;
  }
  EXPECT_EQ(kept_head, 2u);
  EXPECT_EQ(kept_tail, 2u);
  // And the wire model agrees: 4 kept coordinates at 4+4 bytes each.
  EXPECT_EQ(codec.WireBytes(n), 4u * 8u);
}

// ------------------------------------------------- deterministic tie-break

TEST(CodecDeterminismTest, MagnitudeTiesBreakToLowestIndex) {
  // Every coordinate has |v| == 1: nth_element alone would make the kept
  // set implementation-defined. The codec's comparator breaks ties by
  // ascending index, so the survivors are exactly the lowest indices.
  const size_t n = 8;
  std::vector<float> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = (i % 2 == 0) ? 1.0f : -1.0f;
  }
  SyncCompressor codec(CompressionConfig::TopK(0.25, false), n, 1);
  auto payload = v;
  codec.CompressInPlace(0, payload.data(), n);
  EXPECT_EQ(payload[0], 1.0f);
  EXPECT_EQ(payload[1], -1.0f);
  for (size_t i = 2; i < n; ++i) {
    EXPECT_EQ(payload[i], 0.0f);
  }
  // MaskPreview selects the same set without touching the data.
  EXPECT_EQ(codec.MaskPreview(v.data(), n), 2u);
  ASSERT_EQ(codec.kept_indices().size(), 2u);
  EXPECT_EQ(codec.kept_indices()[0], 0u);
  EXPECT_EQ(codec.kept_indices()[1], 1u);
}

// ------------------------------------ selection vs a full-sort reference

uint32_t FloatBits(float x) {
  uint32_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

float FromBits(uint32_t bits) {
  float x;
  std::memcpy(&x, &bits, sizeof(x));
  return x;
}

struct InputFamily {
  const char* name;
  bool finite;
  std::vector<float> values;
};

/// Inputs that stress the magnitude order: heavy ties, ±0, denormals,
/// infinities, and values that differ only in low mantissa bits (so they
/// all land in one bucket of any coarse magnitude histogram).
std::vector<InputFamily> SelectionFamilies(size_t n) {
  Rng rng(4242);
  std::vector<InputFamily> families;
  families.push_back({"gaussian", true, RandomVec(n, 77)});
  families.push_back({"all-equal", true, std::vector<float>(n, 0.75f)});
  std::vector<float> v(n);
  for (auto& x : v) {
    x = rng.NextBounded(10) == 0 ? rng.NextGaussian(0.0f, 1.0f) : 0.0f;
  }
  families.push_back({"mostly-zeros", true, v});
  for (auto& x : v) {
    const uint64_t pick = rng.NextBounded(10);
    x = pick < 4 ? 0.0f : pick < 8 ? -0.0f : (pick == 8 ? 1.0f : -2.0f);
  }
  families.push_back({"signed-zeros", true, v});
  for (auto& x : v) {
    const uint32_t sign = static_cast<uint32_t>(rng.NextBounded(2)) << 31;
    x = FromBits(sign | static_cast<uint32_t>(rng.NextBounded(1u << 23)));
  }
  families.push_back({"denormals", true, v});
  v = RandomVec(n, 78);
  for (size_t i = 0; i < n; i += 7) {
    v[i] = (i % 2 == 0) ? INFINITY : -INFINITY;
  }
  families.push_back({"infinities", false, v});
  for (auto& x : v) {
    const uint32_t sign = static_cast<uint32_t>(rng.NextBounded(2)) << 31;
    x = FromBits(sign | 0x3f800000u |
                 static_cast<uint32_t>(rng.NextBounded(64)));
  }
  families.push_back({"low-mantissa", true, v});
  for (auto& x : v) {
    x = 0.25f * static_cast<float>(static_cast<int>(rng.NextBounded(7)) - 3);
  }
  families.push_back({"lattice", true, v});
  return families;
}

/// The mask's contract spelled out: sort each range's indices by
/// (|x| descending, index ascending), keep the first max(1, fraction*len)
/// of them, and report the union ascending.
std::vector<uint32_t> ReferenceKept(const std::vector<float>& v,
                                    const std::vector<size_t>& range_starts,
                                    double fraction) {
  std::vector<uint32_t> kept;
  for (size_t r = 0; r < range_starts.size(); ++r) {
    const size_t begin = range_starts[r];
    const size_t end =
        r + 1 < range_starts.size() ? range_starts[r + 1] : v.size();
    std::vector<uint32_t> order(end - begin);
    std::iota(order.begin(), order.end(), static_cast<uint32_t>(begin));
    std::sort(order.begin(), order.end(), [&v](uint32_t a, uint32_t b) {
      const float fa = std::fabs(v[a]);
      const float fb = std::fabs(v[b]);
      return fa != fb ? fa > fb : a < b;
    });
    const size_t len = end - begin;
    const size_t k = std::min(
        len, std::max<size_t>(1, static_cast<size_t>(
                                     fraction * static_cast<double>(len))));
    kept.insert(kept.end(), order.begin(), order.begin() + k);
  }
  std::sort(kept.begin(), kept.end());
  return kept;
}

/// Dense reference for mask-then-quantize: zero every dropped coordinate,
/// then quantize the whole vector to the 8-bit grid of its largest value.
std::vector<float> ReferencePayload(std::vector<float> v,
                                    const std::vector<uint32_t>& kept) {
  std::vector<bool> keep(v.size(), false);
  for (uint32_t i : kept) {
    keep[i] = true;
  }
  float max_abs = 0.0f;
  for (size_t i = 0; i < v.size(); ++i) {
    if (!keep[i]) {
      v[i] = 0.0f;
    }
    max_abs = std::max(max_abs, std::fabs(v[i]));
  }
  if (max_abs == 0.0f) {
    return v;
  }
  const float scale = max_abs / 127.0f;
  for (float& x : v) {
    x = std::round(x / scale) * scale;
  }
  return v;
}

TEST(CodecSelectionTest, MatchesFullSortReferenceOnEveryFamily) {
  const size_t n = 1000;
  // Layer blocks of length 1, 2, 1, 100, 496 and 400.
  const std::vector<size_t> blocks = {0, 1, 3, 4, 104, 600};
  // k = 1, 5%, half, len - 1 (for the whole vector) and k >= len.
  const double fractions[] = {1e-9, 0.05, 0.5,
                              (static_cast<double>(n) - 0.5) /
                                  static_cast<double>(n),
                              1.0};
  for (const InputFamily& family : SelectionFamilies(n)) {
    for (bool layered : {false, true}) {
      for (double fraction : fractions) {
        SCOPED_TRACE(::testing::Message()
                     << family.name << (layered ? " layered" : " whole")
                     << " fraction " << fraction);
        const CodecStageConfig mask =
            layered ? CodecStageConfig::LayerTopK(fraction)
                    : CodecStageConfig::TopK(fraction);
        const std::vector<uint32_t> expected = ReferenceKept(
            family.values, layered ? blocks : std::vector<size_t>{0},
            fraction);

        // Mask alone: MaskPreview and CompressInPlace pick the same set,
        // and the payload is the input with the dropped coordinates zeroed.
        SyncCompressor masker(CompressionConfig::Stages({mask}, false), n, 1);
        SyncCompressor coder(
            CompressionConfig::Stages({mask, CodecStageConfig::Quantize(8)},
                                      true),
            n, 1);
        if (layered) {
          masker.SetLayerOffsets(blocks, n);
          coder.SetLayerOffsets(blocks, n);
        }
        EXPECT_EQ(masker.MaskPreview(family.values.data(), n),
                  expected.size());
        EXPECT_EQ(masker.kept_indices(), expected);
        std::vector<float> masked = family.values;
        masker.CompressInPlace(0, masked.data(), n);
        EXPECT_EQ(masker.kept_indices(), expected);
        const std::vector<float> zeroed = [&] {
          std::vector<float> out(n, 0.0f);
          for (uint32_t i : expected) {
            out[i] = family.values[i];
          }
          return out;
        }();
        for (size_t i = 0; i < n; ++i) {
          ASSERT_EQ(FloatBits(masked[i]), FloatBits(zeroed[i])) << i;
        }

        // Mask + q8 with error feedback: the payload and the residual are
        // bitwise those of the dense zero-then-quantize reference. The
        // zero residual is added first, which turns -0 inputs into +0.
        std::vector<float> input = family.values;
        for (float& x : input) {
          x += 0.0f;
        }
        std::vector<float> payload = family.values;
        coder.CompressInPlace(0, payload.data(), n);
        EXPECT_EQ(coder.kept_indices(), expected);
        EXPECT_EQ(coder.MaskPreview(family.values.data(), n),
                  expected.size());
        EXPECT_EQ(coder.kept_indices(), expected);
        if (!family.finite) {
          // An infinite scale turns the dense reference's dropped zeros
          // into 0 * inf = NaN: non-finite drift is outside the codec's
          // contract, so only the selection is checked.
          continue;
        }
        const std::vector<float> reference = ReferencePayload(input, expected);
        const float* residual = coder.ResidualData(0);
        for (size_t i = 0; i < n; ++i) {
          ASSERT_EQ(FloatBits(payload[i]), FloatBits(reference[i])) << i;
          ASSERT_EQ(FloatBits(residual[i]),
                    FloatBits(input[i] - reference[i]))
              << i;
        }
      }
    }
  }
}

// -------------------------------------------------- allocation-free path

TEST(CodecScratchTest, HotPathNeverReallocates) {
  const size_t n = 2048;
  SyncCompressor codec(CompressionConfig::TopKQuantize(0.05, 8), n, 4);
  for (int round = 0; round < 50; ++round) {
    for (int worker = 0; worker < 4; ++worker) {
      auto v = RandomVec(n, 100 + static_cast<uint64_t>(round));
      codec.CompressInPlace(worker, v.data(), n);
      codec.MaskPreview(v.data(), n);
    }
  }
  EXPECT_EQ(codec.scratch_reallocs(), 0u);
}

// --------------------------------------- EF residuals under fleet rotation

TEST(CodecResidualPagingTest, StoreRoundTripsResiduals) {
  ClientStoreConfig config;
  config.population = 4;
  config.cohort_slots = 2;
  config.dim = 8;
  config.opt_state_slots = 0;
  config.seed = 1;
  ClientStateStore store(config);
  store.SetStateSize(0);
  store.SetResidualSize(8);

  std::vector<float> anchor(8, 0.0f);
  std::vector<float> params(8, 1.0f);
  std::vector<float> residual(8);
  for (size_t i = 0; i < 8; ++i) {
    residual[i] = static_cast<float>(i + 1);
  }
  store.AdoptInitialResident(2);
  store.CheckOut(2, params.data(), anchor.data(), nullptr, Rng(1), Rng(2),
                 /*optimizer_steps=*/3, /*steps_this_residency=*/1, nullptr,
                 residual.data());

  std::vector<float> params_out(8, 0.0f);
  std::vector<float> residual_out(8, -1.0f);
  auto restored = store.CheckIn(2, anchor.data(), params_out.data(), nullptr,
                                nullptr, residual_out.data());
  EXPECT_TRUE(restored.restored);
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(residual_out[i], residual[i]);
  }
  // A fresh client pages in with empty compression memory.
  std::fill(residual_out.begin(), residual_out.end(), -1.0f);
  auto fresh = store.CheckIn(3, anchor.data(), params_out.data(), nullptr,
                             nullptr, residual_out.data());
  EXPECT_TRUE(fresh.first_touch);
  for (float x : residual_out) {
    EXPECT_EQ(x, 0.0f);
  }
}

TEST(CodecResidualPagingTest, RotationPreservesErrorFeedbackBitExactly) {
  // Compressor A runs 10 rounds resident; compressor B pages its residual
  // out to a ClientStateStore slot and back in between every round. The
  // error-feedback trajectory must be bit-identical — rotation is memory
  // movement, not an algorithm change.
  const size_t n = 32;
  const auto input = RandomVec(n, 7);
  SyncCompressor resident(CompressionConfig::TopK(0.1, true), n, 1);
  SyncCompressor rotated(CompressionConfig::TopK(0.1, true), n, 1);

  ClientStoreConfig config;
  config.population = 2;
  config.cohort_slots = 1;
  config.dim = n;
  config.opt_state_slots = 0;
  config.seed = 9;
  ClientStateStore store(config);
  store.SetStateSize(0);
  store.SetResidualSize(n);
  std::vector<float> anchor(n, 0.0f);
  std::vector<float> params(n, 0.5f);
  std::vector<float> params_out(n);
  store.AdoptInitialResident(0);

  for (int round = 0; round < 10; ++round) {
    auto a = input;
    resident.CompressInPlace(0, a.data(), n);
    auto b = input;
    rotated.CompressInPlace(0, b.data(), n);
    ASSERT_EQ(std::memcmp(a.data(), b.data(), n * sizeof(float)), 0);
    // Rotate worker 0's client out and back in through a page.
    store.CheckOut(0, params.data(), anchor.data(), nullptr, Rng(1), Rng(2),
                   1, 1, nullptr, rotated.ResidualData(0));
    rotated.ResetWorker(0);
    store.CheckIn(0, anchor.data(), params_out.data(), nullptr, nullptr,
                  rotated.ResidualData(0));
  }
  ASSERT_EQ(std::memcmp(resident.ResidualData(0), rotated.ResidualData(0),
                        n * sizeof(float)),
            0);
}

TEST(CodecResidualTest, ErrorFeedbackBeatsNoFeedbackOnCumulativeError) {
  // Transmit the same vector R times through an aggressive mask. Without
  // EF the dropped 90% is lost every round (cumulative error grows
  // linearly: R * ||dropped||); with EF the backlog re-enters and the
  // cumulative transmitted sum tracks R * input to within the bounded
  // residual.
  const size_t n = 64;
  const int rounds = 50;
  const auto input = RandomVec(n, 21);
  SyncCompressor with_ef(CompressionConfig::TopK(0.1, true), n, 1);
  SyncCompressor no_ef(CompressionConfig::TopK(0.1, false), n, 1);
  std::vector<double> sum_ef(n, 0.0);
  std::vector<double> sum_no(n, 0.0);
  for (int round = 0; round < rounds; ++round) {
    auto a = input;
    with_ef.CompressInPlace(0, a.data(), n);
    auto b = input;
    no_ef.CompressInPlace(0, b.data(), n);
    for (size_t i = 0; i < n; ++i) {
      sum_ef[i] += a[i];
      sum_no[i] += b[i];
    }
  }
  double err_ef = 0.0;
  double err_no = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double target = static_cast<double>(rounds) * input[i];
    err_ef += (sum_ef[i] - target) * (sum_ef[i] - target);
    err_no += (sum_no[i] - target) * (sum_no[i] - target);
  }
  EXPECT_LT(err_ef, 0.05 * err_no);
}

// ------------------------------------------------- payload subset billing

TEST(PayloadCollectiveTest, SubsetBillsExactlyTheStatedPayloads) {
  // Oracle: a subset AllReduce of m compressed payloads of B bytes each
  // must bill exactly like an uncompressed subset AllReduce whose span is
  // B bytes long — the codec only changes the stated payload size.
  const size_t n = 100;            // decompressed span: 400 bytes
  const size_t wire_floats = 10;   // compressed wire: 40 bytes
  const std::vector<int> participants = {0, 1, 2};

  SimNetwork compressed(4, NetworkModel::Federated(),
                        AllReduceAlgorithm::kFlat);
  std::vector<std::vector<float>> buffers;
  std::vector<float*> pointers;
  for (int i = 0; i < 3; ++i) {
    buffers.push_back(RandomVec(n, 30 + static_cast<uint64_t>(i)));
  }
  std::vector<double> mean(n, 0.0);
  for (const auto& buffer : buffers) {
    for (size_t i = 0; i < n; ++i) {
      mean[i] += buffer[i] / 3.0;
    }
  }
  for (auto& buffer : buffers) {
    pointers.push_back(buffer.data());
  }
  const std::vector<size_t> payloads(3, wire_floats * sizeof(float));
  compressed.AllReduceAverageSubsetWithPayloads(pointers, participants, n,
                                                payloads,
                                                TrafficClass::kModelSync);

  SimNetwork oracle(4, NetworkModel::Federated(), AllReduceAlgorithm::kFlat);
  std::vector<std::vector<float>> small(3, std::vector<float>(wire_floats));
  std::vector<float*> small_ptrs;
  for (auto& buffer : small) {
    small_ptrs.push_back(buffer.data());
  }
  oracle.AllReduceAverageSubset(small_ptrs, participants, wire_floats,
                                TrafficClass::kModelSync);

  EXPECT_EQ(compressed.stats().bytes_total, oracle.stats().bytes_total);
  EXPECT_DOUBLE_EQ(compressed.stats().comm_seconds,
                   oracle.stats().comm_seconds);
  // The payload-carrying version still installs the exact mean everywhere.
  for (const auto& buffer : buffers) {
    for (size_t i = 0; i < n; ++i) {
      ASSERT_NEAR(buffer[i], mean[i], 1e-5);
    }
  }
}

// -------------------------------------- compressed hierarchy composition

TEST(CompressedHierarchyTest, SubtreeSyncsBillCompressedBytes) {
  // The combination HierarchicalFdaPolicy x sync_compression used to be a
  // FEDRA_CHECK abort. Now the cluster-local resolutions move coded deltas:
  // same local-only schedule, strictly fewer intra-tier bytes, still
  // exactly zero uplink.
  SynthImageConfig data_config = MnistLikeConfig();
  data_config.num_train = 512;
  data_config.num_test = 256;
  data_config.image_size = 16;
  auto data = GenerateSynthImages(data_config);
  ASSERT_TRUE(data.ok());
  ModelFactory factory = [] { return zoo::Mlp(16 * 16, {24}, 10); };

  auto run = [&](CompressionConfig compression, uint64_t* local_syncs,
                 uint64_t* global_syncs) {
    TrainerConfig config;
    config.num_workers = 4;
    config.batch_size = 16;
    config.local_optimizer = OptimizerConfig::Adam(0.002f);
    config.seed = 23;
    config.max_steps = 30;
    config.eval_every_steps = 15;
    config.eval_subset = 128;
    config.topology = TopologyTree::EdgeCloud(2);
    config.sync_compression = compression;
    DistributedTrainer trainer(factory, data->train, data->test, config);
    HierarchicalFdaConfig policy_config;
    policy_config.monitor.kind = MonitorKind::kLinear;
    policy_config.theta_by_depth = {1e18, 0.0};  // local-only trips
    auto policy = MakeHierarchicalFdaPolicy(policy_config,
                                            trainer.model_dim());
    FEDRA_CHECK(policy.ok()) << policy.status();
    auto result = trainer.Run(policy->get());
    FEDRA_CHECK(result.ok()) << result.status();
    *local_syncs = (*policy)->local_sync_count();
    *global_syncs = (*policy)->global_sync_count();
    return *result;
  };

  uint64_t plain_local = 0;
  uint64_t plain_global = 0;
  TrainResult plain =
      run(CompressionConfig::None(), &plain_local, &plain_global);
  uint64_t coded_local = 0;
  uint64_t coded_global = 0;
  TrainResult coded = run(CompressionConfig::TopKQuantize(0.05, 8),
                          &coded_local, &coded_global);

  // Identical schedule shape: local tier controls drift, uplink silent.
  EXPECT_GT(coded_local, 0u);
  EXPECT_EQ(coded_global, 0u);
  EXPECT_EQ(plain_global, 0u);
  EXPECT_EQ(coded.comm.BytesAtDepth(0), 0u);
  // The coded subtree resolutions move far fewer bytes per sync.
  ASSERT_GT(plain_local, 0u);
  const double plain_per_sync =
      static_cast<double>(plain.comm.bytes_model_sync) /
      static_cast<double>(plain_local);
  const double coded_per_sync =
      static_cast<double>(coded.comm.bytes_model_sync) /
      static_cast<double>(coded_local);
  EXPECT_LT(coded_per_sync, 0.3 * plain_per_sync);
}

TEST(CompressedAsyncTest, TopKQ8AsyncFdaRerunsAndShrinksSyncs) {
  // Asynchronous FDA used to reject sync_compression. On the trainer's
  // event-ordered schedule its syncs take the shared compressed path: the
  // run finishes, reruns bit-identically, and every sync ships far fewer
  // model bytes than the uncompressed async run's.
  SynthImageConfig data_config = MnistLikeConfig();
  data_config.num_train = 512;
  data_config.num_test = 256;
  data_config.image_size = 16;
  auto data = GenerateSynthImages(data_config);
  ASSERT_TRUE(data.ok());
  ModelFactory factory = [] { return zoo::Mlp(16 * 16, {24}, 10); };

  auto run = [&](CompressionConfig compression) {
    TrainerConfig config;
    config.num_workers = 4;
    config.batch_size = 16;
    config.local_optimizer = OptimizerConfig::Adam(0.002f);
    config.seed = 23;
    config.max_steps = 40;
    config.eval_every_steps = 10;
    config.eval_subset = 128;
    config.straggler = StragglerModel::Heavy(0.01);
    config.sync_compression = compression;
    DistributedTrainer trainer(factory, data->train, data->test, config);
    AlgorithmConfig algorithm = AlgorithmConfig::AsyncFda(0.02);
    algorithm.monitor.kind = MonitorKind::kLinear;
    auto policy = MakeSyncPolicy(algorithm, trainer.model_dim());
    FEDRA_CHECK(policy.ok()) << policy.status();
    auto result = trainer.Run(policy->get());
    FEDRA_CHECK(result.ok()) << result.status();
    return *result;
  };

  const CompressionConfig top5_q8 = CompressionConfig::TopKQuantize(0.05, 8);
  const TrainResult coded = run(top5_q8);
  const TrainResult rerun = run(top5_q8);
  const TrainResult plain = run(CompressionConfig::None());
  EXPECT_EQ(coded.total_steps, 40u);
  EXPECT_EQ(testing::HexHash(testing::HashTrainResult(coded)),
            testing::HexHash(testing::HashTrainResult(rerun)));
  ASSERT_GT(coded.total_syncs, 0u);
  ASSERT_GT(plain.total_syncs, 0u);
  const double plain_per_sync =
      static_cast<double>(plain.comm.bytes_model_sync) /
      static_cast<double>(plain.total_syncs);
  const double coded_per_sync =
      static_cast<double>(coded.comm.bytes_model_sync) /
      static_cast<double>(coded.total_syncs);
  EXPECT_LT(coded_per_sync, 0.3 * plain_per_sync);
}

}  // namespace
}  // namespace fedra
