// MUST NOT COMPILE: Picojoules has no registry unit (exporting it raw would
// be off by 1e12), so the typed series append rejects it via static_assert.
#include "obs/timeseries.hpp"
#include "util/units.hpp"

int main() {
  nocw::obs::TimeSeriesSet series;
  series.append("energy.per_event", 0, nocw::units::Picojoules{37.8});
  return 0;
}
