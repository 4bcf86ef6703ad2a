// Negative-compile probe: calling a TTFS_REQUIRES(mu_) helper without holding
// the mutex MUST fail under clang -Werror=thread-safety (the *_locked helper
// contract used throughout MicroBatcher / ModelRegistry).
// Compiled by tools/run_static_analysis.py --expect-fail; never built.
#include "util/thread_annotations.h"

namespace {

class Queue {
 public:
  // BUG (deliberate): lock-assuming helper invoked with no lock held.
  bool empty_unsafe() const { return empty_locked(); }

 private:
  bool empty_locked() const TTFS_REQUIRES(mu_) { return size_ == 0; }

  mutable ttfs::util::Mutex mu_;
  long size_ TTFS_GUARDED_BY(mu_) = 0;
};

}  // namespace

int main() {
  const Queue q;
  return q.empty_unsafe() ? 0 : 1;
}
