// Minimal 2-D geometry for node placement and propagation distances.
#pragma once

#include <cfloat>
#include <cmath>
#include <limits>

namespace mhp {

struct Vec2 {
  double x = 0.0;
  double y = 0.0;

  friend Vec2 operator+(Vec2 a, Vec2 b) { return {a.x + b.x, a.y + b.y}; }
  friend Vec2 operator-(Vec2 a, Vec2 b) { return {a.x - b.x, a.y - b.y}; }
  friend Vec2 operator*(Vec2 a, double s) { return {a.x * s, a.y * s}; }
  friend bool operator==(Vec2 a, Vec2 b) { return a.x == b.x && a.y == b.y; }

  double norm() const { return std::hypot(x, y); }
};

inline double distance(Vec2 a, Vec2 b) { return (a - b).norm(); }

/// Verdict-exact `distance(a, b) <= range` that skips std::hypot away from
/// the boundary.  The squared distance carries ~4 ulp of relative error
/// and distance() ~1 ulp, so outside a ±1e-9 relative band around range²
/// the cheap comparison provably agrees with the distance() form; inside
/// the band (constructed exact-boundary layouts land here) the verdict
/// defers to distance() for bit-exact parity.  Where range² is not a
/// finite normal number (negative, huge, tiny or NaN ranges) the band
/// bounds cannot be trusted and every test defers.
class RangeBand {
 public:
  explicit RangeBand(double range) : range_(range) {
    const double r2 = range * range;
    const double hi = r2 * (1.0 + 1e-9);
    if (range > 0.0 && r2 >= DBL_MIN && hi <= DBL_MAX) {
      r2_lo_ = r2 * (1.0 - 1e-9);
      r2_hi_ = hi;
    }
  }

  bool within(Vec2 a, Vec2 b) const {
    const double dx = a.x - b.x;
    const double dy = a.y - b.y;
    const double d2 = dx * dx + dy * dy;
    if (d2 <= r2_lo_) return true;
    if (d2 >= r2_hi_) return false;
    return distance(a, b) <= range_;
  }

 private:
  double range_;
  // Defaults send every test to distance(): no d2 is <= -1, and no
  // comparison with NaN holds.
  double r2_lo_ = -1.0;
  double r2_hi_ = std::numeric_limits<double>::quiet_NaN();
};

}  // namespace mhp
