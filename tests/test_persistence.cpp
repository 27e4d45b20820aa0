#include "oracle/persistence.hpp"

#include <gtest/gtest.h>

namespace tegrec::predict {
namespace {

using oracle::PersistencePredictor;

TEST(Persistence, PredictsLastRow) {
  PersistencePredictor p;
  TemperatureHistory h(3, 5);
  h.push({1.0, 2.0, 3.0});
  h.push({4.0, 5.0, 6.0});
  p.fit(h);
  EXPECT_EQ(p.predict_next(h), h.latest());
}

TEST(Persistence, HorizonRepeatsLastRow) {
  PersistencePredictor p;
  TemperatureHistory h(2, 5);
  h.push({7.0, 8.0});
  p.fit(h);
  const auto rows = p.predict_horizon(h, 4);
  ASSERT_EQ(rows.size(), 4u);
  for (const auto& row : rows) EXPECT_EQ(row, h.latest());
}

TEST(Persistence, Misuse) {
  PersistencePredictor p;
  TemperatureHistory h(1, 5);
  EXPECT_THROW(p.fit(h), std::invalid_argument);  // empty
  h.push({1.0});
  EXPECT_THROW(p.predict_next(h), std::logic_error);  // unfitted
  p.fit(h);
  EXPECT_NO_THROW(p.predict_next(h));
  EXPECT_EQ(p.name(), "Persistence");
  EXPECT_EQ(p.num_lags(), 1u);
}

}  // namespace
}  // namespace tegrec::predict
