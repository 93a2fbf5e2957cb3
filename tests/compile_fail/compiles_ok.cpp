// CONTROL — MUST COMPILE. Exercises the same headers and legal forms of the
// operations the sibling files misuse; if this file fails, the negative
// tests' compiler invocation is broken and their failures are meaningless.
#include "noc/network.hpp"
#include "obs/timeseries.hpp"
#include "util/units.hpp"

int main() {
  using namespace nocw::units;
  const Cycles c = Cycles{10} + Cycles{5};
  const Joules j = to_joules(Picojoules{37.8});
  const Words w = to_words(Bits{65}, 32);
  const double ratio = FracCycles{3.0} / FracCycles{2.0};
  nocw::obs::TimeSeriesSet series;
  series.append("energy.total", 0, j);
  series.append("noc.flits", 0, flits_of(w));
  nocw::noc::Network net{nocw::noc::NocConfig{}};
  net.run_cycles(1);
  return (c.value() == 15 && ratio > 0.0) ? 0 : 1;
}
