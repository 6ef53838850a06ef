#include "core/worker_arena.h"

#include <cstdint>
#include <cstring>

#include "util/check.h"

// GCC defines __SANITIZE_ADDRESS__; clang exposes it via __has_feature.
#if defined(__SANITIZE_ADDRESS__)
#define FEDRA_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define FEDRA_ASAN 1
#endif
#endif

#if defined(FEDRA_ASAN)
#include <sanitizer/asan_interface.h>
#endif

namespace fedra {

namespace {

// Canary bit pattern painted into guard gaps. An exact, recognizable value:
// any arithmetic on it (NaN-free training never produces it) or any stray
// write destroys the pattern and CheckCanaries aborts.
float CanaryWord() {
  const uint32_t bits = 0xFED7A5E1u;
  float word;
  std::memcpy(&word, &bits, sizeof(word));
  return word;
}

// Under ASan the gaps are poisoned and never read back (CheckSlabCanaries).
#if !defined(FEDRA_ASAN)
bool IsCanaryWord(float value) {
  uint32_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits == 0xFED7A5E1u;
}
#endif

// Poisons/unpoisons one guard gap under ASan so an out-of-row write aborts
// at the write site instead of waiting for the next canary sweep.
void PoisonGap(float* gap, size_t len) {
#if defined(FEDRA_ASAN)
  __asan_poison_memory_region(gap, len * sizeof(float));
#else
  (void)gap;
  (void)len;
#endif
}

void UnpoisonGap(float* gap, size_t len) {
#if defined(FEDRA_ASAN)
  __asan_unpoison_memory_region(gap, len * sizeof(float));
#else
  (void)gap;
  (void)len;
#endif
}

constexpr size_t kSlabAlignment = 64;

}  // namespace

void WorkerArena::Slab::Allocate(size_t count) {
  size_ = count;
  if (count == 0) {
    data_.reset();
    return;
  }
  // aligned_alloc wants the size in whole alignment units.
  size_t bytes = count * sizeof(float);
  bytes = (bytes + kSlabAlignment - 1) / kSlabAlignment * kSlabAlignment;
  float* raw = static_cast<float*>(std::aligned_alloc(kSlabAlignment, bytes));
  FEDRA_CHECK(raw != nullptr) << "slab allocation of" << bytes << "bytes failed";
  data_.reset(raw);
}

size_t WorkerArena::RowStride(size_t row_len) {
  return guards_enabled() ? row_len + kGuardFloats : row_len;
}

void WorkerArena::InitSlab(Slab& slab, size_t row_len) {
  const size_t k = static_cast<size_t>(num_workers_);
  const size_t stride = RowStride(row_len);
  slab.Allocate(k * stride);
  ++allocation_count_;
  float* base = slab.data();
  std::memset(base, 0, k * stride * sizeof(float));
  if (guards_enabled()) {
    const float canary = CanaryWord();
    for (size_t worker = 0; worker < k; ++worker) {
      float* gap = base + worker * stride + row_len;
      for (size_t i = 0; i < kGuardFloats; ++i) {
        gap[i] = canary;
      }
      PoisonGap(gap, kGuardFloats);
    }
  }
}

float* WorkerArena::RowPtr(Slab& slab, int k, size_t row_len) {
  FEDRA_CHECK(k >= 0 && k < num_workers_);
  return slab.data() + static_cast<size_t>(k) * RowStride(row_len);
}

WorkerArena::WorkerArena(int num_workers, size_t dim, size_t opt_state_slots)
    : num_workers_(num_workers),
      dim_(dim),
      opt_state_slots_(opt_state_slots) {
  FEDRA_CHECK_GT(num_workers, 0);
  FEDRA_CHECK_GT(dim, 0u);
  InitSlab(params_, dim);
  InitSlab(grads_, dim);
  InitSlab(drift_, dim);
  if (opt_state_slots_ > 0) {
    InitSlab(opt_state_, opt_state_slots_ * dim_);
  }
}

WorkerArena::~WorkerArena() {
  CheckCanaries();
  if (guards_enabled()) {
    // The slabs' storage is about to be freed; hand it back unpoisoned so
    // the allocator (and any later reuse of the pages) sees clean memory.
    auto unpoison_slab = [this](Slab& slab, size_t row_len) {
      if (slab.empty()) {
        return;
      }
      for (int k = 0; k < num_workers_; ++k) {
        UnpoisonGap(RowPtr(slab, k, row_len) + row_len, kGuardFloats);
      }
    };
    unpoison_slab(params_, dim_);
    unpoison_slab(grads_, dim_);
    unpoison_slab(drift_, dim_);
    unpoison_slab(opt_state_, opt_state_slots_ * dim_);
    unpoison_slab(state_, state_size_);
  }
}

float* WorkerArena::opt_state(int k) {
  if (opt_state_slots_ == 0) {
    return nullptr;
  }
  return RowPtr(opt_state_, k, opt_state_slots_ * dim_);
}

void WorkerArena::AllocateStateScratch(size_t state_size) {
  FEDRA_CHECK_GT(state_size, 0u);
  if (state_size_ == state_size) {
    return;
  }
  FEDRA_CHECK_EQ(state_size_, 0u)
      << "monitor state slab already sized differently";
  state_size_ = state_size;
  InitSlab(state_, state_size);
}

float* WorkerArena::state(int k) {
  FEDRA_CHECK_GT(state_size_, 0u) << "AllocateStateScratch() first";
  return RowPtr(state_, k, state_size_);
}

std::vector<float*> WorkerArena::ParamPointers() {
  std::vector<float*> pointers(static_cast<size_t>(num_workers_));
  for (int k = 0; k < num_workers_; ++k) {
    pointers[static_cast<size_t>(k)] = params(k);
  }
  return pointers;
}

std::vector<float*> WorkerArena::StatePointers() {
  std::vector<float*> pointers(static_cast<size_t>(num_workers_));
  for (int k = 0; k < num_workers_; ++k) {
    pointers[static_cast<size_t>(k)] = state(k);
  }
  return pointers;
}

size_t WorkerArena::total_bytes() const {
  return (params_.size() + grads_.size() + opt_state_.size() +
          drift_.size() + state_.size()) *
         sizeof(float);
}

void WorkerArena::CheckSlabCanaries(const Slab& slab, size_t row_len,
                                    const char* slab_name) const {
#if defined(FEDRA_ASAN)
  // The gaps are poisoned: a stray write already aborted at its site, and
  // reading them here would itself be a use-after-poison.
  (void)slab;
  (void)row_len;
  (void)slab_name;
#else
  if (!guards_enabled() || slab.empty()) {
    return;
  }
  for (int k = 0; k < num_workers_; ++k) {
    const float* gap =
        slab.data() + static_cast<size_t>(k) * RowStride(row_len) + row_len;
    for (size_t i = 0; i < kGuardFloats; ++i) {
      FEDRA_CHECK(IsCanaryWord(gap[i]))
          << "slab canary smashed:" << slab_name << "row" << k
          << "guard word" << i
          << "- an out-of-row write overran worker" << k << "'s slice";
    }
  }
#endif
}

void WorkerArena::CheckCanaries() const {
  CheckSlabCanaries(params_, dim_, "params");
  CheckSlabCanaries(grads_, dim_, "grads");
  CheckSlabCanaries(drift_, dim_, "drift");
  CheckSlabCanaries(opt_state_, opt_state_slots_ * dim_, "opt_state");
  CheckSlabCanaries(state_, state_size_, "state");
}

}  // namespace fedra
