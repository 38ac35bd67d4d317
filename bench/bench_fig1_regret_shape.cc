// Fig. 1: the single-round regret of a posted-price mechanism with a reserve
// price, as a function of the posted price. Underestimating the market value
// loses only the markup; overestimating kills the sale and forfeits the whole
// value — the piecewise, highly asymmetric shape that motivates the design.
//
// Prints R(p) per Eq. (1) for a sweep of posted prices, for both orderings of
// reserve vs market value.

#include <cstdio>
#include <iostream>

#include "common/flags.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "market/regret_tracker.h"

int main(int argc, char** argv) {
  double value = 1.0;
  double reserve = 0.6;
  int64_t steps = 14;
  pdm::FlagSet flags("bench_fig1_regret_shape");
  flags.AddDouble("value", &value, "market value v of the query");
  flags.AddDouble("reserve", &reserve, "reserve price q of the query");
  flags.AddInt64("steps", &steps, "number of sweep points");
  if (!flags.Parse(argc, argv)) return flags.help_requested() ? 0 : 1;

  std::printf("=== Fig. 1: single-round regret R(p), v = %.2f ===\n\n", value);
  pdm::TablePrinter table({"posted price p", "R(p) | q=" + pdm::FormatDouble(reserve, 2),
                           "R(p) | q=" + pdm::FormatDouble(1.2 * value, 2) + " (q>v)"});
  for (int64_t i = 0; i <= steps; ++i) {
    double p = 1.3 * value * static_cast<double>(i) / static_cast<double>(steps);
    // With the reserve constraint the broker actually posts max(q, p).
    double p_low = std::max(reserve, p);
    double r_low =
        pdm::RegretTracker::SingleRoundRegret(value, reserve, p_low, p_low <= value);
    double q_high = 1.2 * value;
    double p_high = std::max(q_high, p);
    double r_high =
        pdm::RegretTracker::SingleRoundRegret(value, q_high, p_high, p_high <= value);
    table.AddRow({pdm::FormatDouble(p, 3), pdm::FormatDouble(r_low, 3),
                  pdm::FormatDouble(r_high, 3)});
  }
  table.Print(std::cout);
  std::printf(
      "\nShape check (paper's Fig. 1): for q <= v, regret falls linearly to 0\n"
      "at p = v, then jumps to v (no sale) for p > v; for q > v it is 0\n"
      "everywhere.\n");
  return 0;
}
