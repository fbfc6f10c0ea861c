// Positive control: every sanctioned locking pattern in one file. Must
// compile clean under -Wthread-safety -Werror=thread-safety; if this
// file ever fails, the wrappers (not the seeds) regressed.

#include <deque>

#include "util/mutex.h"

namespace {

class Account {
 public:
  // RAII lock, guarded access.
  void Deposit(int amount) {
    wsd::MutexLock lock(mu_);
    balance_ += amount;
  }

  // Manual staircase with ACQUIRE/RELEASE.
  void Open() ACQUIRE(mu_) { mu_.Lock(); }
  void Close() RELEASE(mu_) { mu_.Unlock(); }

  // REQUIRES callee reached from a locked region.
  int BalanceLocked() const REQUIRES(mu_) { return balance_; }

  int Audit() {
    wsd::MutexLock lock(mu_);
    return BalanceLocked();
  }

  // TRY_ACQUIRE with the result checked.
  bool TryDeposit(int amount) {
    if (!mu_.TryLock()) return false;
    balance_ += amount;
    mu_.Unlock();
    return true;
  }

  // EXCLUDES caller contract.
  int Snapshot() EXCLUDES(mu_) {
    wsd::MutexLock lock(mu_);
    return balance_;
  }

  // Condition-variable wait loop with the explicit re-check idiom.
  void WaitForFunds(int floor) {
    wsd::MutexLock lock(mu_);
    while (balance_ < floor) cv_.Wait(mu_);
  }

  void NotifyFunds() { cv_.NotifyAll(); }

 private:
  mutable wsd::Mutex mu_;
  wsd::CondVar cv_;
  int balance_ GUARDED_BY(mu_) = 0;
};

// PT_GUARDED_BY: the pointer moves freely, the pointee needs the lock.
class Slot {
 public:
  void Set(int v) {
    wsd::MutexLock lock(mu_);
    *value_ = v;
  }

 private:
  wsd::Mutex mu_;
  int storage_ = 0;
  int* value_ PT_GUARDED_BY(mu_) = &storage_;
};

}  // namespace

int main() {
  Account account;
  account.Deposit(10);
  account.Open();
  account.Close();
  (void)account.Audit();
  (void)account.TryDeposit(1);
  (void)account.Snapshot();
  account.NotifyFunds();
  account.WaitForFunds(0);
  Slot slot;
  slot.Set(3);
  return 0;
}
