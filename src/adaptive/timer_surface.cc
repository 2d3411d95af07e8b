#include "src/adaptive/timer_surface.h"

#include <memory>
#include <utility>

namespace tempo {

ServiceTimerId SimTimerService::Arm(SimDuration timeout, std::function<void()> fire) {
  const ServiceTimerId id = next_++;
  ++arms_;
  auto fn = std::make_shared<std::function<void()>>(std::move(fire));
  const EventId event = sim_->ScheduleAfter(timeout, [this, id, fn] {
    live_.erase(id);
    (*fn)();
  });
  live_.emplace(id, event);
  return id;
}

bool SimTimerService::Cancel(ServiceTimerId id) {
  auto it = live_.find(id);
  if (it == live_.end()) {
    return false;
  }
  sim_->Cancel(it->second);
  live_.erase(it);
  return true;
}

LinuxTimerService::LinuxTimerService(LinuxKernel* kernel, const std::string& callsite, Pid pid)
    : kernel_(kernel), callsite_(callsite), pid_(pid) {}

SimTime LinuxTimerService::Now() const { return kernel_->sim().Now(); }

ServiceTimerId LinuxTimerService::Arm(SimDuration timeout, std::function<void()> fire) {
  Slot* slot = nullptr;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slots_.push_back(std::make_unique<Slot>());
    slot = slots_.back().get();
    slot->timer = kernel_->InitTimer(callsite_, [slot, this] {
      const ServiceTimerId id = slot->current;
      slot->current = kInvalidServiceTimer;
      auto fire_fn = std::move(slot->fire);
      slot->fire = nullptr;
      live_.erase(id);
      free_slots_.push_back(slot);
      if (fire_fn) {
        fire_fn();
      }
    }, pid_);
  }
  const ServiceTimerId id = next_++;
  ++arms_;
  slot->current = id;
  slot->fire = std::move(fire);
  live_.emplace(id, slot);
  kernel_->ModTimerUser(slot->timer, timeout);
  return id;
}

bool LinuxTimerService::Cancel(ServiceTimerId id) {
  auto it = live_.find(id);
  if (it == live_.end()) {
    return false;
  }
  Slot* slot = it->second;
  kernel_->DelTimer(slot->timer);
  slot->current = kInvalidServiceTimer;
  slot->fire = nullptr;
  live_.erase(it);
  free_slots_.push_back(slot);
  return true;
}

}  // namespace tempo
