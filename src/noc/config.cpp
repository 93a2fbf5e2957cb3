#include "noc/config.hpp"

#include <cstdlib>

namespace nocw::noc {

std::vector<int> NocConfig::memory_interface_nodes() const {
  std::vector<int> out;
  out.reserve(4);
  for (int id = 0; id < node_count(); ++id) {
    if (is_memory_interface(id)) out.push_back(id);
  }
  return out;
}

std::vector<int> NocConfig::pe_nodes() const {
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(node_count()));
  for (int id = 0; id < node_count(); ++id) {
    if (!is_memory_interface(id)) out.push_back(id);
  }
  return out;
}

int NocConfig::hops(int a, int b) const noexcept {
  return std::abs(node_x(a) - node_x(b)) + std::abs(node_y(a) - node_y(b));
}

}  // namespace nocw::noc
