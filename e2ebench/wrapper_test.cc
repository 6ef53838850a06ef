// Wrapper transparency: for every workload, a run through the RoundTimer
// and a run without it must produce an identical TrainResult (counts and
// evaluation history), so the round timer measures the unmodified program.
// Also checks that the timer saw one MaybeSync per round and every sync.
//
//   e2e_wrapper_test [workload...]   (default: all workloads)
//
// Exits 0 when every workload passes, 1 otherwise.

#include <cstdio>
#include <string>
#include <vector>

#include "round_timer.h"
#include "util/check.h"
#include "workloads.h"

namespace e2e {
namespace {

bool CheckWorkload(const std::string& name) {
  auto workload = MakeWorkload(name, DefaultSeed(name));
  FEDRA_CHECK_OK(workload.status());

  auto plain = Prepare(*workload);
  FEDRA_CHECK_OK(plain.status());
  auto unwrapped = plain->trainer->Run(plain->policy.get());

  auto wrapped_setup = Prepare(*workload);
  FEDRA_CHECK_OK(wrapped_setup.status());
  RoundTimer timer(wrapped_setup->policy.get());
  auto wrapped = wrapped_setup->trainer->Run(&timer);

  bool ok = unwrapped.ok() && wrapped.ok();
  if (ok) {
    ok = SameOutcome(*unwrapped, *wrapped);
    uint64_t synced = 0;
    for (const RoundSpan& span : timer.spans()) {
      synced += span.synced ? 1 : 0;
    }
    ok = ok && synced == wrapped->total_syncs &&
         timer.spans().size() + wrapped->zero_participant_rounds ==
             wrapped->total_steps &&
         timer.name() == wrapped_setup->policy->name();
  }
  std::printf("%-12s %s (steps %zu, syncs %llu, spans %zu)\n", name.c_str(),
              ok ? "PASS" : "FAIL", wrapped.ok() ? wrapped->total_steps : 0,
              wrapped.ok()
                  ? static_cast<unsigned long long>(wrapped->total_syncs)
                  : 0ULL,
              timer.spans().size());
  return ok;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  std::vector<std::string> names(argv + 1, argv + argc);
  if (names.empty()) {
    names = e2e::WorkloadNames();
  }
  bool ok = true;
  for (const std::string& name : names) {
    ok = e2e::CheckWorkload(name) && ok;
  }
  return ok ? 0 : 1;
}
