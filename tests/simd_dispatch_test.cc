// Dispatch-matrix parity suite: force-runs every compiled-in SIMD level on
// this machine (simd::SupportedLevels + simd::SetLevel) and checks each
// dispatched kernel against its ref:: oracle to parity tolerance. Also pins
// the two exact clauses of the determinism contract (docs/determinism.md):
// a fixed level is bit-deterministic run-to-run, and kScalar == kGeneric
// bit-for-bit on the flat-span kernels (they share the portable canonical
// bodies). Sizes straddle every vector width's main-loop/remainder split so
// tail handling is covered at all levels.

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/ref_ops.h"
#include "tensor/simd_dispatch.h"
#include "util/rng.h"

namespace fedra {
namespace {

constexpr double kRelTol = 1e-4;

// Remainders against 8/16/32/64-wide strides, plus tiny and empty spans.
constexpr size_t kSizes[] = {0, 1, 3, 7, 8, 15, 16, 31, 33, 64, 127, 257,
                             1000, 4096 + 5};

std::vector<float> RandomVec(size_t n, uint64_t seed, float lo = -2.0f,
                             float hi = 2.0f) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) {
    x = rng.NextUniform(lo, hi);
  }
  return v;
}

void ExpectSpanNear(const std::vector<float>& got,
                    const std::vector<float>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    const double denom = std::max(
        1.0, std::max(std::fabs(static_cast<double>(got[i])),
                      std::fabs(static_cast<double>(want[i]))));
    ASSERT_NEAR(got[i], want[i], kRelTol * denom) << "index " << i;
  }
}

// Restores whatever level resolution had picked before the test fiddled
// with it, so suites sharing the binary see an unchanged dispatch state.
class SimdDispatchTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_level_ = simd::ActiveLevel(); }
  void TearDown() override { simd::SetLevel(saved_level_); }

  simd::Level saved_level_;
};

TEST_F(SimdDispatchTest, SupportedLevelsAlwaysIncludePortableTiers) {
  EXPECT_TRUE(simd::LevelSupported(simd::Level::kScalar));
  EXPECT_TRUE(simd::LevelSupported(simd::Level::kGeneric));
  const auto levels = simd::SupportedLevels();
  ASSERT_GE(levels.size(), 2u);
  EXPECT_EQ(levels[0], simd::Level::kScalar);
  EXPECT_EQ(levels[1], simd::Level::kGeneric);
  for (simd::Level level : levels) {
    EXPECT_TRUE(simd::LevelSupported(level)) << simd::LevelName(level);
  }
}

TEST_F(SimdDispatchTest, LevelNamesRoundTripThroughParse) {
  for (simd::Level level :
       {simd::Level::kScalar, simd::Level::kGeneric, simd::Level::kAvx2,
        simd::Level::kAvx512, simd::Level::kNeon}) {
    simd::Level parsed;
    ASSERT_TRUE(simd::ParseLevelName(simd::LevelName(level), &parsed))
        << simd::LevelName(level);
    EXPECT_EQ(parsed, level);
  }
  simd::Level parsed;
  EXPECT_FALSE(simd::ParseLevelName("sse9", &parsed));
  EXPECT_FALSE(simd::ParseLevelName("", &parsed));
}

TEST_F(SimdDispatchTest, SetLevelPublishesMatchingActiveLevel) {
  for (simd::Level level : simd::SupportedLevels()) {
    simd::SetLevel(level);
    EXPECT_EQ(simd::ActiveLevel(), level) << simd::LevelName(level);
    // The table must be the level's own table, observable through behavior:
    // a trivial dot must work at every level.
    const float one[4] = {1.0f, 1.0f, 1.0f, 1.0f};
    EXPECT_DOUBLE_EQ(simd::Kernels().dot(one, one, 4), 4.0);
  }
}

// ------------------------------------------------------- flat-span parity --

TEST_F(SimdDispatchTest, AxpyMatchesOracleAtEveryLevel) {
  for (simd::Level level : simd::SupportedLevels()) {
    SCOPED_TRACE(simd::LevelName(level));
    simd::SetLevel(level);
    for (size_t n : kSizes) {
      SCOPED_TRACE(::testing::Message() << "n=" << n);
      const auto x = RandomVec(n, 101 + n);
      auto y = RandomVec(n, 202 + n);
      auto want = y;
      ref::Axpy(0.37f, x.data(), want.data(), n);
      simd::Kernels().axpy(0.37f, x.data(), y.data(), n);
      ExpectSpanNear(y, want);
    }
  }
}

TEST_F(SimdDispatchTest, DotMatchesOracleAtEveryLevel) {
  for (simd::Level level : simd::SupportedLevels()) {
    SCOPED_TRACE(simd::LevelName(level));
    simd::SetLevel(level);
    for (size_t n : kSizes) {
      SCOPED_TRACE(::testing::Message() << "n=" << n);
      const auto a = RandomVec(n, 303 + n);
      const auto b = RandomVec(n, 404 + n);
      const double want = ref::Dot(a.data(), b.data(), n);
      const double got = simd::Kernels().dot(a.data(), b.data(), n);
      EXPECT_NEAR(got, want, kRelTol * std::max(1.0, std::fabs(want)));
    }
  }
}

TEST_F(SimdDispatchTest, SquaredNormMatchesOracleAtEveryLevel) {
  for (simd::Level level : simd::SupportedLevels()) {
    SCOPED_TRACE(simd::LevelName(level));
    simd::SetLevel(level);
    for (size_t n : kSizes) {
      SCOPED_TRACE(::testing::Message() << "n=" << n);
      const auto x = RandomVec(n, 505 + n);
      const double want = ref::SquaredNorm(x.data(), n);
      const double got = simd::Kernels().squared_norm(x.data(), n);
      EXPECT_NEAR(got, want, kRelTol * std::max(1.0, want));
    }
  }
}

TEST_F(SimdDispatchTest, SubSquaredNormMatchesOracleAtEveryLevel) {
  for (simd::Level level : simd::SupportedLevels()) {
    SCOPED_TRACE(simd::LevelName(level));
    simd::SetLevel(level);
    for (size_t n : kSizes) {
      SCOPED_TRACE(::testing::Message() << "n=" << n);
      const auto a = RandomVec(n, 606 + n);
      const auto b = RandomVec(n, 707 + n);
      std::vector<float> out(n, 0.0f);
      std::vector<float> want_out(n, 0.0f);
      const double want =
          ref::SubSquaredNorm(a.data(), b.data(), want_out.data(), n);
      const double got =
          simd::Kernels().sub_squared_norm(a.data(), b.data(), out.data(), n);
      EXPECT_NEAR(got, want, kRelTol * std::max(1.0, want));
      ExpectSpanNear(out, want_out);
    }
  }
}

TEST_F(SimdDispatchTest, AxpyNormMatchesOracleAtEveryLevel) {
  for (simd::Level level : simd::SupportedLevels()) {
    SCOPED_TRACE(simd::LevelName(level));
    simd::SetLevel(level);
    for (size_t n : kSizes) {
      SCOPED_TRACE(::testing::Message() << "n=" << n);
      const auto x = RandomVec(n, 808 + n);
      auto y = RandomVec(n, 909 + n);
      auto want_y = y;
      const double want = ref::AxpyNorm(-0.21f, x.data(), want_y.data(), n);
      const double got =
          simd::Kernels().axpy_norm(-0.21f, x.data(), y.data(), n);
      EXPECT_NEAR(got, want, kRelTol * std::max(1.0, want));
      ExpectSpanNear(y, want_y);
    }
  }
}

// -------------------------------------------------------- reduction parity --

TEST_F(SimdDispatchTest, ReduceScaleMatchesOracleAtEveryLevel) {
  constexpr size_t kBufs = 5;
  for (simd::Level level : simd::SupportedLevels()) {
    SCOPED_TRACE(simd::LevelName(level));
    simd::SetLevel(level);
    for (size_t n : kSizes) {
      SCOPED_TRACE(::testing::Message() << "n=" << n);
      std::vector<std::vector<float>> storage;
      std::vector<const float*> bufs;
      for (size_t k = 0; k < kBufs; ++k) {
        storage.push_back(RandomVec(n, 1111 + 13 * k + n));
        bufs.push_back(storage.back().data());
      }
      std::vector<float> out(n, 0.0f);
      std::vector<float> want(n, 0.0f);
      ref::ReduceScale(bufs.data(), kBufs, n, 1.0 / kBufs, want.data());
      simd::Kernels().reduce_scale(bufs.data(), kBufs, n, 1.0 / kBufs,
                                   out.data());
      ExpectSpanNear(out, want);
    }
  }
}

// ----------------------------------------------------- GEMM micro-kernel --

// acc[i][j] = sum_k apanel[k*Mr + i] * bpanel[k*Nr + j], one double
// accumulator per cell — the packed-panel contract every variant implements.
void MicroKernelOracle(int kc, const float* apanel, const float* bpanel,
                       float* acc) {
  for (int i = 0; i < simd::kGemmMr; ++i) {
    for (int j = 0; j < simd::kGemmNr; ++j) {
      double sum = 0.0;
      for (int k = 0; k < kc; ++k) {
        sum += static_cast<double>(apanel[k * simd::kGemmMr + i]) *
               static_cast<double>(bpanel[k * simd::kGemmNr + j]);
      }
      acc[i * simd::kGemmNr + j] = static_cast<float>(sum);
    }
  }
}

TEST_F(SimdDispatchTest, GemmMicroKernelMatchesOracleAtEveryLevel) {
  const size_t tile =
      static_cast<size_t>(simd::kGemmMr) * static_cast<size_t>(simd::kGemmNr);
  for (simd::Level level : simd::SupportedLevels()) {
    SCOPED_TRACE(simd::LevelName(level));
    simd::SetLevel(level);
    for (int kc : {1, 2, 7, 64, 256}) {
      SCOPED_TRACE(::testing::Message() << "kc=" << kc);
      const auto apanel = RandomVec(
          static_cast<size_t>(kc) * simd::kGemmMr, 3333 + kc);
      const auto bpanel = RandomVec(
          static_cast<size_t>(kc) * simd::kGemmNr, 4444 + kc);
      std::vector<float> acc(tile, 0.0f);
      std::vector<float> want(tile, 0.0f);
      MicroKernelOracle(kc, apanel.data(), bpanel.data(), want.data());
      simd::Kernels().gemm_micro_8x32(kc, apanel.data(), bpanel.data(),
                                      acc.data());
      ExpectSpanNear(acc, want);
    }
  }
}

// -------------------------------------------------- determinism contract --

TEST_F(SimdDispatchTest, FixedLevelIsBitDeterministicRunToRun) {
  const size_t n = 4096 + 5;
  const auto a = RandomVec(n, 5555);
  const auto b = RandomVec(n, 6666);
  for (simd::Level level : simd::SupportedLevels()) {
    SCOPED_TRACE(simd::LevelName(level));
    simd::SetLevel(level);
    const double first = simd::Kernels().dot(a.data(), b.data(), n);
    const double norm_first = simd::Kernels().squared_norm(a.data(), n);
    for (int rep = 0; rep < 3; ++rep) {
      // EXPECT_EQ, not NEAR: same level + same inputs must be the same bits.
      EXPECT_EQ(simd::Kernels().dot(a.data(), b.data(), n), first);
      EXPECT_EQ(simd::Kernels().squared_norm(a.data(), n), norm_first);
    }
  }
}

TEST_F(SimdDispatchTest, ScalarAndGenericAreBitIdenticalOnFlatSpanKernels) {
  // kScalar and kGeneric dispatch to the same portable canonical bodies for
  // the flat-span kernels, so they are bit-identical — the clause that lets
  // golden-history suites pin kGeneric and still describe kScalar builds.
  for (size_t n : kSizes) {
    SCOPED_TRACE(::testing::Message() << "n=" << n);
    const auto x = RandomVec(n, 7777 + n);
    const auto b = RandomVec(n, 8888 + n);

    simd::SetLevel(simd::Level::kScalar);
    auto y_scalar = RandomVec(n, 9999 + n);
    const double dot_scalar = simd::Kernels().dot(x.data(), b.data(), n);
    const double axpy_scalar =
        simd::Kernels().axpy_norm(0.61f, x.data(), y_scalar.data(), n);

    simd::SetLevel(simd::Level::kGeneric);
    auto y_generic = RandomVec(n, 9999 + n);
    const double dot_generic = simd::Kernels().dot(x.data(), b.data(), n);
    const double axpy_generic =
        simd::Kernels().axpy_norm(0.61f, x.data(), y_generic.data(), n);

    EXPECT_EQ(dot_scalar, dot_generic);
    EXPECT_EQ(axpy_scalar, axpy_generic);
    ASSERT_EQ(y_scalar.size(), y_generic.size());
    // memcmp must not see the null data() of an empty vector, even for a
    // zero-byte compare; every non-empty size is compared bitwise.
    if (n > 0) {
      EXPECT_EQ(0, std::memcmp(y_scalar.data(), y_generic.data(),
                               n * sizeof(float)));
    }
  }
}

}  // namespace
}  // namespace fedra
