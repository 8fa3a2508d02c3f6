// The live device population: which devices are attached, and to which
// cell, which cells are serving, and how faded each device's link is. The
// daemon's view of "the system as it is now".
//
// The universe topology fixes each device's identity, radio and home
// station; the population overlays the mutable part — presence, the
// *current* serving station, station outages and per-device link factors,
// which churn and fault events move around. Transitions need no global
// up/down bookkeeping in the event stream: a leave while down, a migrate
// while down and a station fail/recover repeating the current state are
// no-ops. A join while up is *not* a no-op: it re-homes the device to the
// join's station — and, unlike a migrate, the Reconciler leaves the
// device's in-flight edge/cloud work running through the old cell.
#pragma once

#include <cstddef>
#include <vector>

#include "mec/topology.h"
#include "serve/event.h"

namespace mecsched::serve {

class Population {
 public:
  // Everyone starts up, attached to their home (topology) station, on a
  // nominal link; every station starts up.
  explicit Population(const mec::Topology& universe);

  std::size_t size() const { return up_.size(); }
  bool up(std::size_t device) const { return up_[device]; }
  std::size_t station(std::size_t device) const { return station_[device]; }
  std::size_t num_up() const { return num_up_; }
  bool station_up(std::size_t station) const { return station_up_[station]; }
  // Multiplier on the device's radio rates (1.0 = nominal).
  double link_factor(std::size_t device) const { return link_[device]; }

  // Applies one churn or fault event (arrival events are ignored here —
  // they do not move devices). Join re-attaches at the event's target
  // station; migrate moves an *up* device (a migrate of a down device is a
  // no-op).
  void apply(const Event& e);

 private:
  std::vector<char> up_;  // vector<bool> is bit-packed; char keeps it simple
  std::vector<std::size_t> station_;
  std::vector<char> station_up_;
  std::vector<double> link_;
  std::size_t num_up_ = 0;
};

}  // namespace mecsched::serve
