// Violation: waiting on a condition variable without holding the mutex
// it is bound to (CondVar::Wait is REQUIRES(mu)). At runtime this is
// undefined behavior in std::condition_variable::wait — the exact bug
// class the wait loop in ComputeOnce::Get must never reintroduce.
// expect-error: requires holding mutex

#include "util/mutex.h"

namespace {

wsd::Mutex g_mu;
wsd::CondVar g_cv;
bool g_ready GUARDED_BY(g_mu) = false;

void WaitUnlocked() {
  // BUG: cv-wait outside any locked region.
  g_cv.Wait(g_mu);
}

}  // namespace

int main() {
  WaitUnlocked();
  return 0;
}
