// Tests for the metrics module: KDE estimators, summary statistics,
// least-squares fits (the Fig. 12 machinery), ASCII plots, and model
// evaluation.

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "data/synth.h"
#include "metrics/ascii_plot.h"
#include "metrics/evaluation.h"
#include "metrics/kde.h"
#include "metrics/summary.h"
#include "nn/loss.h"
#include "nn/zoo.h"
#include "util/rng.h"

namespace fedra {
namespace {

// -------------------------------------------------------------------- KDE

TEST(Kde1dTest, DensityIntegratesToOne) {
  Rng rng(1);
  std::vector<double> samples;
  for (int i = 0; i < 200; ++i) {
    samples.push_back(rng.NextGaussian());
  }
  Kde1d kde(samples);
  // Trapezoid integration over a wide interval.
  double integral = 0.0;
  const double lo = -6.0;
  const double hi = 6.0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    const double x = lo + (hi - lo) * i / (n - 1);
    integral += kde.Density(x) * (hi - lo) / (n - 1);
  }
  EXPECT_NEAR(integral, 1.0, 0.02);
}

TEST(Kde1dTest, ModeNearSampleMean) {
  Rng rng(2);
  std::vector<double> samples;
  for (int i = 0; i < 500; ++i) {
    samples.push_back(3.0 + 0.5 * rng.NextGaussian());
  }
  Kde1d kde(samples);
  EXPECT_NEAR(kde.Mode(), 3.0, 0.3);
}

TEST(Kde1dTest, BimodalModesDetected) {
  Rng rng(3);
  std::vector<double> samples;
  for (int i = 0; i < 300; ++i) {
    samples.push_back(-2.0 + 0.3 * rng.NextGaussian());
  }
  for (int i = 0; i < 600; ++i) {
    samples.push_back(2.0 + 0.3 * rng.NextGaussian());
  }
  Kde1d kde(samples, 0.3);
  // Larger cluster wins the global mode.
  EXPECT_NEAR(kde.Mode(), 2.0, 0.4);
}

TEST(Kde1dTest, DegenerateSamplesHandled) {
  Kde1d kde({5.0, 5.0, 5.0});
  EXPECT_GT(kde.Density(5.0), 0.0);
  EXPECT_DOUBLE_EQ(kde.Mode(), 5.0);
}

TEST(Kde2dTest, DensityPeaksAtCluster) {
  Rng rng(4);
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 0; i < 400; ++i) {
    xs.push_back(1.0 + 0.2 * rng.NextGaussian());
    ys.push_back(-1.0 + 0.2 * rng.NextGaussian());
  }
  Kde2d kde(xs, ys);
  EXPECT_GT(kde.Density(1.0, -1.0), kde.Density(3.0, 3.0));
  auto mode = kde.FindMode();
  EXPECT_NEAR(mode.x, 1.0, 0.3);
  EXPECT_NEAR(mode.y, -1.0, 0.3);
}

TEST(Kde2dTest, IntegratesToOneOnGrid) {
  Rng rng(5);
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 0; i < 150; ++i) {
    xs.push_back(rng.NextGaussian());
    ys.push_back(rng.NextGaussian());
  }
  Kde2d kde(xs, ys);
  double integral = 0.0;
  const double lo = -5.0;
  const double hi = 5.0;
  const int n = 120;
  const double cell = (hi - lo) / n;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      integral += kde.Density(lo + (i + 0.5) * cell, lo + (j + 0.5) * cell) *
                  cell * cell;
    }
  }
  EXPECT_NEAR(integral, 1.0, 0.05);
}

TEST(ScottBandwidthTest, ShrinksWithSampleSize) {
  EXPECT_GT(ScottBandwidth(1.0, 10, 2), ScottBandwidth(1.0, 10000, 2));
  EXPECT_GT(ScottBandwidth(1.0, 100, 1), 0.0);
}

// ---------------------------------------------------------------- summary

TEST(SummaryTest, BasicStatistics) {
  SummaryStats stats = Summarize({1.0, 2.0, 3.0, 4.0, 5.0});
  EXPECT_EQ(stats.count, 5u);
  EXPECT_DOUBLE_EQ(stats.mean, 3.0);
  EXPECT_DOUBLE_EQ(stats.median, 3.0);
  EXPECT_DOUBLE_EQ(stats.min, 1.0);
  EXPECT_DOUBLE_EQ(stats.max, 5.0);
  EXPECT_NEAR(stats.stddev, std::sqrt(2.5), 1e-12);
}

TEST(SummaryTest, EmptyGivesZeros) {
  SummaryStats stats = Summarize({});
  EXPECT_EQ(stats.count, 0u);
  EXPECT_EQ(stats.mean, 0.0);
}

TEST(QuantileTest, Interpolates) {
  std::vector<double> values = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(Quantile(values, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(Quantile(values, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(Quantile(values, 1.0), 10.0);
}

TEST(FitLinearTest, RecoversExactLine) {
  std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  std::vector<double> ys;
  for (double x : xs) {
    ys.push_back(2.5 * x - 1.0);
  }
  LinearFit fit = FitLinear(xs, ys);
  EXPECT_NEAR(fit.slope, 2.5, 1e-12);
  EXPECT_NEAR(fit.intercept, -1.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(FitProportionalTest, RecoversSlopeThroughOrigin) {
  // The form of the paper's Theta ~= c*d lines (Fig. 12).
  std::vector<double> xs = {62e3, 2.6e6, 6.9e6, 18e6};
  std::vector<double> ys;
  for (double x : xs) {
    ys.push_back(4.91e-5 * x);
  }
  LinearFit fit = FitProportional(xs, ys);
  EXPECT_NEAR(fit.slope, 4.91e-5, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-9);
}

TEST(FitProportionalTest, NoisyDataStillClose) {
  Rng rng(6);
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 1; i <= 50; ++i) {
    const double x = 100.0 * i;
    xs.push_back(x);
    ys.push_back(0.02 * x * (1.0 + 0.1 * rng.NextGaussian()));
  }
  LinearFit fit = FitProportional(xs, ys);
  EXPECT_NEAR(fit.slope, 0.02, 0.002);
  EXPECT_GT(fit.r_squared, 0.9);
}

TEST(GeometricMeanTest, Computes) {
  EXPECT_DOUBLE_EQ(GeometricMean({1.0, 100.0}), 10.0);
  EXPECT_NEAR(GeometricMean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

// -------------------------------------------------------------- asciiplot

TEST(AsciiPlotTest, RendersSeriesAndLegend) {
  ScatterSeries series;
  series.label = "SketchFDA";
  series.glyph = 's';
  series.xs = {1.0, 10.0, 100.0};
  series.ys = {1000.0, 100.0, 10.0};
  ScatterOptions options;
  options.title = "comm vs steps";
  options.x_label = "GB";
  options.y_label = "steps";
  const std::string plot = RenderScatter({series}, options);
  EXPECT_NE(plot.find("comm vs steps"), std::string::npos);
  EXPECT_NE(plot.find("s = SketchFDA"), std::string::npos);
  EXPECT_NE(plot.find('s'), std::string::npos);
  EXPECT_NE(plot.find("[log]"), std::string::npos);
}

TEST(AsciiPlotTest, DropsNonPositiveOnLogAxes) {
  ScatterSeries series;
  series.label = "bad";
  series.glyph = 'b';
  series.xs = {-1.0, 0.0};
  series.ys = {1.0, 1.0};
  const std::string plot = RenderScatter({series}, {});
  EXPECT_NE(plot.find("no plottable points"), std::string::npos);
}

TEST(AsciiPlotTest, SinglePointRenders) {
  ScatterSeries series;
  series.label = "dot";
  series.glyph = '*';
  series.xs = {5.0};
  series.ys = {7.0};
  const std::string plot = RenderScatter({series}, {});
  EXPECT_NE(plot.find('*'), std::string::npos);
}

TEST(AsciiPlotTest, OverlapsBecomeHash) {
  ScatterSeries a;
  a.label = "a";
  a.glyph = 'a';
  a.xs = {1.0, 100.0};
  a.ys = {1.0, 100.0};
  ScatterSeries b = a;
  b.label = "b";
  b.glyph = 'b';
  const std::string plot = RenderScatter({a, b}, {});
  EXPECT_NE(plot.find('#'), std::string::npos);
}

// ------------------------------------------------------------- evaluation

TEST(EvaluationTest, PerfectModelScoresOne) {
  // Train a tiny MLP to memorize a small synthetic set, then Evaluate.
  SynthImageConfig config = MnistLikeConfig();
  config.num_train = 64;
  config.num_test = 64;
  config.noise_stddev = 0.05f;
  config.num_classes = 4;
  auto data = GenerateSynthImages(config);
  ASSERT_TRUE(data.ok());
  auto model = zoo::Mlp(16 * 16, {32}, 4);
  model->InitParams(9);
  // Untrained accuracy ~ chance.
  EvalResult before = Evaluate(model.get(), data->test);
  EXPECT_LT(before.accuracy, 0.6);
  EXPECT_EQ(before.samples, 64u);
  EXPECT_GT(before.mean_loss, 0.5);
}

TEST(EvaluationTest, SubsetIsDeterministicAndSmaller) {
  SynthImageConfig config = MnistLikeConfig();
  config.num_train = 32;
  config.num_test = 128;
  auto data = GenerateSynthImages(config);
  ASSERT_TRUE(data.ok());
  auto model = zoo::Mlp(16 * 16, {16}, 10);
  model->InitParams(10);
  EvalResult a = EvaluateSubset(model.get(), data->test, 32, 5);
  EvalResult b = EvaluateSubset(model.get(), data->test, 32, 5);
  EXPECT_EQ(a.samples, 32u);
  EXPECT_DOUBLE_EQ(a.accuracy, b.accuracy);
  // Different seed may sample differently.
  EvalResult c = EvaluateSubset(model.get(), data->test, 32, 6);
  EXPECT_EQ(c.samples, 32u);
}

TEST(EvaluationTest, SubsetLargerThanDatasetFallsBack) {
  SynthImageConfig config = MnistLikeConfig();
  config.num_train = 16;
  config.num_test = 16;
  auto data = GenerateSynthImages(config);
  ASSERT_TRUE(data.ok());
  auto model = zoo::Mlp(16 * 16, {8}, 10);
  model->InitParams(11);
  EvalResult result = EvaluateSubset(model.get(), data->test, 1000, 7);
  EXPECT_EQ(result.samples, 16u);
}

// Evaluate runs the inference pass; it must score exactly like the plain
// eval-mode Forward loop it replaced, batch by batch.
EvalResult ForwardLoop(Model* model, const Dataset& dataset,
                       const std::vector<size_t>& indices) {
  const size_t kBatch = 256;
  size_t correct = 0;
  double loss_sum = 0.0;
  for (size_t start = 0; start < indices.size(); start += kBatch) {
    const std::vector<size_t> batch(
        indices.begin() + static_cast<long>(start),
        indices.begin() +
            static_cast<long>(std::min(indices.size(), start + kBatch)));
    Tensor logits =
        model->Forward(dataset.GatherImages(batch), /*training=*/false);
    LossResult loss =
        SoftmaxCrossEntropy(logits, dataset.GatherLabels(batch));
    correct += loss.correct;
    loss_sum += loss.loss * static_cast<double>(batch.size());
  }
  EvalResult result;
  result.samples = indices.size();
  result.accuracy =
      static_cast<double>(correct) / static_cast<double>(indices.size());
  result.mean_loss = loss_sum / static_cast<double>(indices.size());
  return result;
}

void ExpectSameEval(const EvalResult& got, const EvalResult& expected) {
  EXPECT_EQ(got.samples, expected.samples);
  EXPECT_EQ(got.accuracy, expected.accuracy);
  EXPECT_EQ(got.mean_loss, expected.mean_loss);
}

TEST(EvaluationTest, InferencePassMatchesForwardLoop) {
  // 300 samples: one full 256 batch plus a ragged 44. DenseNet121Lite
  // carries BatchNorm, whose eval statistics come from each batch.
  SynthImageConfig config = MnistLikeConfig();
  config.num_train = 300;
  config.num_test = 300;
  config.image_size = 16;
  auto data = GenerateSynthImages(config);
  ASSERT_TRUE(data.ok());
  std::vector<std::unique_ptr<Model>> models;
  models.push_back(zoo::LeNet5(1, 16, 10));
  models.push_back(zoo::DenseNet121Lite(1, 16, 10));
  for (auto& model : models) {
    SCOPED_TRACE(model->name());
    model->InitParams(12);
    std::vector<size_t> all(data->test.size());
    for (size_t i = 0; i < all.size(); ++i) {
      all[i] = i;
    }
    ExpectSameEval(Evaluate(model.get(), data->test),
                   ForwardLoop(model.get(), data->test, all));
    Rng rng(8);
    std::vector<size_t> subset = rng.Permutation(data->train.size());
    subset.resize(270);
    ExpectSameEval(EvaluateSubset(model.get(), data->train, 270, 8),
                   ForwardLoop(model.get(), data->train, subset));
  }
}

}  // namespace
}  // namespace fedra
