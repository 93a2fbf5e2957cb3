// MUST NOT COMPILE: Network has no public single-cycle stepper. Callers
// drive it through run_until_drained() / run_cycles(), which route through
// the engine (event or dense) NocConfig::engine selects; a hand-rolled step
// loop would bypass the drain accounting and idle jumps that the
// dense/event equivalence tests cover. The one stepper, step_cycle(), is
// private.
#include "noc/network.hpp"

int main() {
  nocw::noc::Network net{nocw::noc::NocConfig{}};
  net.step();
  return 0;
}
