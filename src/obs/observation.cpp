#include "obs/observation.hpp"

#include "util/check.hpp"

namespace nocw::obs {

void NocObservation::merge(const NocObservation& o) {
  if (!o.collected) return;
  if (!collected) {
    *this = o;
    return;
  }
  NOCW_CHECK_EQ(link_flits.size(), o.link_flits.size());
  NOCW_CHECK_EQ(node_ejections.size(), o.node_ejections.size());
  for (std::size_t i = 0; i < link_flits.size(); ++i) {
    link_flits[i] += o.link_flits[i];
  }
  for (std::size_t i = 0; i < node_ejections.size(); ++i) {
    node_ejections[i] += o.node_ejections[i];
  }
  window_cycles += o.window_cycles;
}

}  // namespace nocw::obs
