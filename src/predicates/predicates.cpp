#include "predicates/predicates.hpp"

#include <atomic>
#include <cmath>
#include <cstdint>

#include "predicates/expansion.hpp"

namespace pi2m {
namespace {

// Static-filter error bounds: Shewchuk, "Adaptive Precision Floating-Point
// Arithmetic and Fast Robust Geometric Predicates" (1997), §4.3 orient3d,
// §4.4 insphere. Stage A bounds the straightforward double evaluation
// including the initial coordinate translations; stage B bounds the
// evaluation whose initial translations are taken as exact (tails dropped);
// stage C additionally accounts for the translation tails to first order.

/// Machine epsilon for round-to-nearest doubles (Shewchuk's epsilon = 2^-53).
constexpr double kEps = 1.1102230246251565e-16;

constexpr double kResultErrBound = (3.0 + 8.0 * kEps) * kEps;
constexpr double kO3dErrBoundA = (7.0 + 56.0 * kEps) * kEps;
constexpr double kO3dErrBoundB = (3.0 + 28.0 * kEps) * kEps;
constexpr double kO3dErrBoundC = (26.0 + 288.0 * kEps) * kEps * kEps;
constexpr double kIspErrBoundA = (16.0 + 224.0 * kEps) * kEps;
constexpr double kIspErrBoundB = (5.0 + 72.0 * kEps) * kEps;
constexpr double kIspErrBoundC = (71.0 + 1408.0 * kEps) * kEps * kEps;

// ---------------------------------------------------------------------------
// Contention-free call counters.
//
// Every orient3d/insphere call bumps a counter; a process-global atomic
// would put one shared cache line on the hottest path in the system (every
// thread, every predicate). Instead each thread owns a cache-line-sized slot
// (single-writer; the load+store pair compiles to a plain increment, no
// lock prefix) and readers sum the slots. With more than kCounterSlots
// threads slots are shared and increments may be lost — counters are
// reporting-only, so approximate totals in that regime are acceptable.
// ---------------------------------------------------------------------------

enum CounterIndex : int {
  kO3dCalls = 0,
  kO3dAdapt = 1,
  kO3dExact = 2,
  kIspCalls = 3,
  kIspAdapt = 4,
  kIspExact = 5,
};

struct alignas(64) CounterSlot {
  std::atomic<std::uint64_t> c[8];  // 64 bytes: one cache line per slot
};
constexpr std::size_t kCounterSlots = 256;
CounterSlot g_counters[kCounterSlots];

CounterSlot& my_counter_slot() {
  static std::atomic<std::uint32_t> g_next_slot{0};
  thread_local const std::uint32_t idx =
      g_next_slot.fetch_add(1, std::memory_order_relaxed) &
      (kCounterSlots - 1);
  return g_counters[idx];
}

inline void bump(CounterSlot& slot, int which) {
  std::atomic<std::uint64_t>& c = slot.c[which];
  c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}

std::uint64_t sum_counters(int which) {
  std::uint64_t total = 0;
  for (const CounterSlot& s : g_counters) {
    total += s.c[which].load(std::memory_order_relaxed);
  }
  return total;
}

// ---------------------------------------------------------------------------
// Fixed-size expansion primitives for the adaptive stages (Shewchuk 1997,
// Figs. 10/13). Unlike exact::Expansion these never allocate: components
// live in stack arrays ordered by increasing magnitude, zeros elided.
// ---------------------------------------------------------------------------

using exact::fast_two_sum;
using exact::two_diff;
using exact::two_prod;
using exact::two_sum;

inline void two_diff_tail(double a, double b, double x, double& y) {
  const double bv = a - x;
  const double av = x + bv;
  y = (a - av) + (bv - b);
}

inline void two_one_diff(double a1, double a0, double b, double& x2,
                         double& x1, double& x0) {
  double i;
  two_diff(a0, b, i, x0);
  two_sum(a1, i, x2, x1);
}

/// (a1,a0) - (b1,b0) -> x[3..0], exact.
inline void two_two_diff(double a1, double a0, double b1, double b0,
                         double* x) {
  double j, r0;
  two_one_diff(a1, a0, b0, j, r0, x[0]);
  two_one_diff(j, r0, b1, x[3], x[2], x[1]);
}

/// fast_expansion_sum_zeroelim: h = e + f; returns the component count.
int expansion_sum(int elen, const double* e, int flen, const double* f,
                  double* h) {
  double q, qnew, hh, enow, fnow;
  int eindex = 0, findex = 0, hindex = 0;
  enow = e[0];
  fnow = f[0];
  if ((fnow > enow) == (fnow > -enow)) {
    q = enow;
    enow = e[++eindex];
  } else {
    q = fnow;
    fnow = f[++findex];
  }
  if ((eindex < elen) && (findex < flen)) {
    if ((fnow > enow) == (fnow > -enow)) {
      fast_two_sum(enow, q, qnew, hh);
      enow = e[++eindex];
    } else {
      fast_two_sum(fnow, q, qnew, hh);
      fnow = f[++findex];
    }
    q = qnew;
    if (hh != 0.0) h[hindex++] = hh;
    while ((eindex < elen) && (findex < flen)) {
      if ((fnow > enow) == (fnow > -enow)) {
        two_sum(q, enow, qnew, hh);
        enow = e[++eindex];
      } else {
        two_sum(q, fnow, qnew, hh);
        fnow = f[++findex];
      }
      q = qnew;
      if (hh != 0.0) h[hindex++] = hh;
    }
  }
  while (eindex < elen) {
    two_sum(q, enow, qnew, hh);
    enow = e[++eindex];
    q = qnew;
    if (hh != 0.0) h[hindex++] = hh;
  }
  while (findex < flen) {
    two_sum(q, fnow, qnew, hh);
    fnow = f[++findex];
    q = qnew;
    if (hh != 0.0) h[hindex++] = hh;
  }
  if ((q != 0.0) || (hindex == 0)) h[hindex++] = q;
  return hindex;
}

/// scale_expansion_zeroelim: h = e * b; returns the component count.
int expansion_scale(int elen, const double* e, double b, double* h) {
  double q, sum, hh, p1, p0, enow;
  int hindex = 0;
  two_prod(e[0], b, q, hh);
  if (hh != 0.0) h[hindex++] = hh;
  for (int eindex = 1; eindex < elen; ++eindex) {
    enow = e[eindex];
    two_prod(enow, b, p1, p0);
    two_sum(q, p0, sum, hh);
    if (hh != 0.0) h[hindex++] = hh;
    fast_two_sum(p1, sum, q, hh);
    if (hh != 0.0) h[hindex++] = hh;
  }
  if ((q != 0.0) || (hindex == 0)) h[hindex++] = q;
  return hindex;
}

inline double expansion_estimate(int elen, const double* e) {
  double q = e[0];
  for (int i = 1; i < elen; ++i) q += e[i];
  return q;
}

// ---------------------------------------------------------------------------
// Adaptive stage B/C evaluations. Return true (with `sign` set) when the
// stage certifies a sign; false sends the caller to the full exact stage D.
// ---------------------------------------------------------------------------

bool orient3d_adapt(const Vec3& a, const Vec3& b, const Vec3& c, const Vec3& d,
                    double permanent, int& sign) {
  const double adx = a.x - d.x, ady = a.y - d.y, adz = a.z - d.z;
  const double bdx = b.x - d.x, bdy = b.y - d.y, bdz = b.z - d.z;
  const double cdx = c.x - d.x, cdy = c.y - d.y, cdz = c.z - d.z;

  // Stage B: treat the coordinate translations as exact and evaluate the
  // determinant exactly from there (24 components max).
  double bdxcdy1, bdxcdy0, cdxbdy1, cdxbdy0;
  double cdxady1, cdxady0, adxcdy1, adxcdy0;
  double adxbdy1, adxbdy0, bdxady1, bdxady0;
  double bc[4], ca[4], ab[4];
  two_prod(bdx, cdy, bdxcdy1, bdxcdy0);
  two_prod(cdx, bdy, cdxbdy1, cdxbdy0);
  two_two_diff(bdxcdy1, bdxcdy0, cdxbdy1, cdxbdy0, bc);
  two_prod(cdx, ady, cdxady1, cdxady0);
  two_prod(adx, cdy, adxcdy1, adxcdy0);
  two_two_diff(cdxady1, cdxady0, adxcdy1, adxcdy0, ca);
  two_prod(adx, bdy, adxbdy1, adxbdy0);
  two_prod(bdx, ady, bdxady1, bdxady0);
  two_two_diff(adxbdy1, adxbdy0, bdxady1, bdxady0, ab);

  double adet[8], bdet[8], cdet[8], abdet[16], fin1[24];
  const int alen = expansion_scale(4, bc, adz, adet);
  const int blen = expansion_scale(4, ca, bdz, bdet);
  const int clen = expansion_scale(4, ab, cdz, cdet);
  const int ablen = expansion_sum(alen, adet, blen, bdet, abdet);
  const int finlen = expansion_sum(ablen, abdet, clen, cdet, fin1);

  double det = expansion_estimate(finlen, fin1);
  double errbound = kO3dErrBoundB * permanent;
  if (det >= errbound || -det >= errbound) {
    sign = (det > 0.0) - (det < 0.0);
    return true;
  }

  // Stage C: fold in the translation tails to first order.
  double adxtail, adytail, adztail;
  double bdxtail, bdytail, bdztail;
  double cdxtail, cdytail, cdztail;
  two_diff_tail(a.x, d.x, adx, adxtail);
  two_diff_tail(a.y, d.y, ady, adytail);
  two_diff_tail(a.z, d.z, adz, adztail);
  two_diff_tail(b.x, d.x, bdx, bdxtail);
  two_diff_tail(b.y, d.y, bdy, bdytail);
  two_diff_tail(b.z, d.z, bdz, bdztail);
  two_diff_tail(c.x, d.x, cdx, cdxtail);
  two_diff_tail(c.y, d.y, cdy, cdytail);
  two_diff_tail(c.z, d.z, cdz, cdztail);

  if (adxtail == 0.0 && adytail == 0.0 && adztail == 0.0 && bdxtail == 0.0 &&
      bdytail == 0.0 && bdztail == 0.0 && cdxtail == 0.0 && cdytail == 0.0 &&
      cdztail == 0.0) {
    // The translations were exact: the stage-B value IS the determinant.
    sign = (det > 0.0) - (det < 0.0);
    return true;
  }

  errbound = kO3dErrBoundC * permanent + kResultErrBound * std::fabs(det);
  det += (adz * ((bdx * cdytail + cdy * bdxtail) -
                 (bdy * cdxtail + cdx * bdytail)) +
          adztail * (bdx * cdy - bdy * cdx)) +
         (bdz * ((cdx * adytail + ady * cdxtail) -
                 (cdy * adxtail + adx * cdytail)) +
          bdztail * (cdx * ady - cdy * adx)) +
         (cdz * ((adx * bdytail + bdy * adxtail) -
                 (ady * bdxtail + bdx * adytail)) +
          cdztail * (adx * bdy - ady * bdx));
  if (det >= errbound || -det >= errbound) {
    sign = (det > 0.0) - (det < 0.0);
    return true;
  }
  return false;
}

bool insphere_adapt(const Vec3& a, const Vec3& b, const Vec3& c, const Vec3& d,
                    const Vec3& e, double permanent, int& sign) {
  const double aex = a.x - e.x, aey = a.y - e.y, aez = a.z - e.z;
  const double bex = b.x - e.x, bey = b.y - e.y, bez = b.z - e.z;
  const double cex = c.x - e.x, cey = c.y - e.y, cez = c.z - e.z;
  const double dex = d.x - e.x, dey = d.y - e.y, dez = d.z - e.z;

  // Stage B: exact evaluation with the translations taken as exact.
  double t1, t0;
  double ab[4], bc[4], cd[4], da[4], ac[4], bd[4];
  {
    double u1, u0;
    two_prod(aex, bey, t1, t0);
    two_prod(bex, aey, u1, u0);
    two_two_diff(t1, t0, u1, u0, ab);
    two_prod(bex, cey, t1, t0);
    two_prod(cex, bey, u1, u0);
    two_two_diff(t1, t0, u1, u0, bc);
    two_prod(cex, dey, t1, t0);
    two_prod(dex, cey, u1, u0);
    two_two_diff(t1, t0, u1, u0, cd);
    two_prod(dex, aey, t1, t0);
    two_prod(aex, dey, u1, u0);
    two_two_diff(t1, t0, u1, u0, da);
    two_prod(aex, cey, t1, t0);
    two_prod(cex, aey, u1, u0);
    two_two_diff(t1, t0, u1, u0, ac);
    two_prod(bex, dey, t1, t0);
    two_prod(dex, bey, u1, u0);
    two_two_diff(t1, t0, u1, u0, bd);
  }

  double temp8a[8], temp8b[8], temp8c[8], temp16[16], temp24[24], temp48[48];
  double xdet[96], ydet[96], zdet[96], xydet[192];
  double adet[288], bdet[288], cdet[288], ddet[288];
  double abdet[576], cddet[576], fin1[1152];
  int t8alen, t8blen, t8clen, t16len, t24len, t48len, xlen, ylen, zlen, xylen;

  // adet = -alift * bcd
  t8alen = expansion_scale(4, cd, bez, temp8a);
  t8blen = expansion_scale(4, bd, -cez, temp8b);
  t8clen = expansion_scale(4, bc, dez, temp8c);
  t16len = expansion_sum(t8alen, temp8a, t8blen, temp8b, temp16);
  t24len = expansion_sum(t16len, temp16, t8clen, temp8c, temp24);
  t48len = expansion_scale(t24len, temp24, aex, temp48);
  xlen = expansion_scale(t48len, temp48, -aex, xdet);
  t48len = expansion_scale(t24len, temp24, aey, temp48);
  ylen = expansion_scale(t48len, temp48, -aey, ydet);
  t48len = expansion_scale(t24len, temp24, aez, temp48);
  zlen = expansion_scale(t48len, temp48, -aez, zdet);
  xylen = expansion_sum(xlen, xdet, ylen, ydet, xydet);
  const int alen = expansion_sum(xylen, xydet, zlen, zdet, adet);

  // bdet = +blift * cda
  t8alen = expansion_scale(4, da, cez, temp8a);
  t8blen = expansion_scale(4, ac, dez, temp8b);
  t8clen = expansion_scale(4, cd, aez, temp8c);
  t16len = expansion_sum(t8alen, temp8a, t8blen, temp8b, temp16);
  t24len = expansion_sum(t16len, temp16, t8clen, temp8c, temp24);
  t48len = expansion_scale(t24len, temp24, bex, temp48);
  xlen = expansion_scale(t48len, temp48, bex, xdet);
  t48len = expansion_scale(t24len, temp24, bey, temp48);
  ylen = expansion_scale(t48len, temp48, bey, ydet);
  t48len = expansion_scale(t24len, temp24, bez, temp48);
  zlen = expansion_scale(t48len, temp48, bez, zdet);
  xylen = expansion_sum(xlen, xdet, ylen, ydet, xydet);
  const int blen = expansion_sum(xylen, xydet, zlen, zdet, bdet);

  // cdet = -clift * dab
  t8alen = expansion_scale(4, ab, dez, temp8a);
  t8blen = expansion_scale(4, bd, aez, temp8b);
  t8clen = expansion_scale(4, da, bez, temp8c);
  t16len = expansion_sum(t8alen, temp8a, t8blen, temp8b, temp16);
  t24len = expansion_sum(t16len, temp16, t8clen, temp8c, temp24);
  t48len = expansion_scale(t24len, temp24, cex, temp48);
  xlen = expansion_scale(t48len, temp48, -cex, xdet);
  t48len = expansion_scale(t24len, temp24, cey, temp48);
  ylen = expansion_scale(t48len, temp48, -cey, ydet);
  t48len = expansion_scale(t24len, temp24, cez, temp48);
  zlen = expansion_scale(t48len, temp48, -cez, zdet);
  xylen = expansion_sum(xlen, xdet, ylen, ydet, xydet);
  const int clen = expansion_sum(xylen, xydet, zlen, zdet, cdet);

  // ddet = +dlift * abc
  t8alen = expansion_scale(4, bc, aez, temp8a);
  t8blen = expansion_scale(4, ac, -bez, temp8b);
  t8clen = expansion_scale(4, ab, cez, temp8c);
  t16len = expansion_sum(t8alen, temp8a, t8blen, temp8b, temp16);
  t24len = expansion_sum(t16len, temp16, t8clen, temp8c, temp24);
  t48len = expansion_scale(t24len, temp24, dex, temp48);
  xlen = expansion_scale(t48len, temp48, dex, xdet);
  t48len = expansion_scale(t24len, temp24, dey, temp48);
  ylen = expansion_scale(t48len, temp48, dey, ydet);
  t48len = expansion_scale(t24len, temp24, dez, temp48);
  zlen = expansion_scale(t48len, temp48, dez, zdet);
  xylen = expansion_sum(xlen, xdet, ylen, ydet, xydet);
  const int dlen = expansion_sum(xylen, xydet, zlen, zdet, ddet);

  const int ablen = expansion_sum(alen, adet, blen, bdet, abdet);
  const int cdlen = expansion_sum(clen, cdet, dlen, ddet, cddet);
  const int finlen = expansion_sum(ablen, abdet, cdlen, cddet, fin1);

  double det = expansion_estimate(finlen, fin1);
  double errbound = kIspErrBoundB * permanent;
  if (det >= errbound || -det >= errbound) {
    sign = (det > 0.0) - (det < 0.0);
    return true;
  }

  // Stage C: first-order correction by the translation tails.
  double aextail, aeytail, aeztail, bextail, beytail, beztail;
  double cextail, ceytail, ceztail, dextail, deytail, deztail;
  two_diff_tail(a.x, e.x, aex, aextail);
  two_diff_tail(a.y, e.y, aey, aeytail);
  two_diff_tail(a.z, e.z, aez, aeztail);
  two_diff_tail(b.x, e.x, bex, bextail);
  two_diff_tail(b.y, e.y, bey, beytail);
  two_diff_tail(b.z, e.z, bez, beztail);
  two_diff_tail(c.x, e.x, cex, cextail);
  two_diff_tail(c.y, e.y, cey, ceytail);
  two_diff_tail(c.z, e.z, cez, ceztail);
  two_diff_tail(d.x, e.x, dex, dextail);
  two_diff_tail(d.y, e.y, dey, deytail);
  two_diff_tail(d.z, e.z, dez, deztail);
  if (aextail == 0.0 && aeytail == 0.0 && aeztail == 0.0 && bextail == 0.0 &&
      beytail == 0.0 && beztail == 0.0 && cextail == 0.0 && ceytail == 0.0 &&
      ceztail == 0.0 && dextail == 0.0 && deytail == 0.0 && deztail == 0.0) {
    sign = (det > 0.0) - (det < 0.0);
    return true;
  }

  errbound = kIspErrBoundC * permanent + kResultErrBound * std::fabs(det);
  const double abeps =
      (aex * beytail + bey * aextail) - (aey * bextail + bex * aeytail);
  const double bceps =
      (bex * ceytail + cey * bextail) - (bey * cextail + cex * beytail);
  const double cdeps =
      (cex * deytail + dey * cextail) - (cey * dextail + dex * ceytail);
  const double daeps =
      (dex * aeytail + aey * dextail) - (dey * aextail + aex * deytail);
  const double aceps =
      (aex * ceytail + cey * aextail) - (aey * cextail + cex * aeytail);
  const double bdeps =
      (bex * deytail + dey * bextail) - (bey * dextail + dex * beytail);
  det += (((bex * bex + bey * bey + bez * bez) *
               ((cez * daeps + dez * aceps + aez * cdeps) +
                (ceztail * da[3] + deztail * ac[3] + aeztail * cd[3])) +
           (dex * dex + dey * dey + dez * dez) *
               ((aez * bceps - bez * aceps + cez * abeps) +
                (aeztail * bc[3] - beztail * ac[3] + ceztail * ab[3]))) -
          ((aex * aex + aey * aey + aez * aez) *
               ((bez * cdeps - cez * bdeps + dez * bceps) +
                (beztail * cd[3] - ceztail * bd[3] + deztail * bc[3])) +
           (cex * cex + cey * cey + cez * cez) *
               ((dez * abeps + aez * bdeps + bez * daeps) +
                (deztail * ab[3] + aeztail * bd[3] + beztail * da[3])))) +
         2.0 * (((bex * bextail + bey * beytail + bez * beztail) *
                     (cez * da[3] + dez * ac[3] + aez * cd[3]) +
                 (dex * dextail + dey * deytail + dez * deztail) *
                     (aez * bc[3] - bez * ac[3] + cez * ab[3])) -
                ((aex * aextail + aey * aeytail + aez * aeztail) *
                     (bez * cd[3] - cez * bd[3] + dez * bc[3]) +
                 (cex * cextail + cey * ceytail + cez * ceztail) *
                     (dez * ab[3] + aez * bd[3] + bez * da[3])));
  if (det >= errbound || -det >= errbound) {
    sign = (det > 0.0) - (det < 0.0);
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Stage D: full exact evaluation over expansion arithmetic (the initial
// translations themselves are kept as two-component expansions).
// ---------------------------------------------------------------------------

using exact::Expansion;

Expansion diff(double a, double b) {
  double hi, lo;
  two_diff(a, b, hi, lo);
  return Expansion::from_two(hi, lo);
}

}  // namespace

int orient3d_exact(const Vec3& a, const Vec3& b, const Vec3& c,
                   const Vec3& d) {
  const Expansion adx = diff(a.x, d.x), ady = diff(a.y, d.y), adz = diff(a.z, d.z);
  const Expansion bdx = diff(b.x, d.x), bdy = diff(b.y, d.y), bdz = diff(b.z, d.z);
  const Expansion cdx = diff(c.x, d.x), cdy = diff(c.y, d.y), cdz = diff(c.z, d.z);

  const Expansion det = adz * (bdx * cdy - cdx * bdy) +
                        bdz * (cdx * ady - adx * cdy) +
                        cdz * (adx * bdy - bdx * ady);
  return det.sign();
}

int insphere_exact(const Vec3& a, const Vec3& b, const Vec3& c, const Vec3& d,
                   const Vec3& e) {
  const Expansion aex = diff(a.x, e.x), aey = diff(a.y, e.y), aez = diff(a.z, e.z);
  const Expansion bex = diff(b.x, e.x), bey = diff(b.y, e.y), bez = diff(b.z, e.z);
  const Expansion cex = diff(c.x, e.x), cey = diff(c.y, e.y), cez = diff(c.z, e.z);
  const Expansion dex = diff(d.x, e.x), dey = diff(d.y, e.y), dez = diff(d.z, e.z);

  const Expansion ab = aex * bey - bex * aey;
  const Expansion bc = bex * cey - cex * bey;
  const Expansion cd = cex * dey - dex * cey;
  const Expansion da = dex * aey - aex * dey;
  const Expansion ac = aex * cey - cex * aey;
  const Expansion bd = bex * dey - dex * bey;

  const Expansion abc = aez * bc - bez * ac + cez * ab;
  const Expansion bcd = bez * cd - cez * bd + dez * bc;
  const Expansion cda = cez * da + dez * ac + aez * cd;
  const Expansion dab = dez * ab + aez * bd + bez * da;

  const Expansion alift = aex * aex + aey * aey + aez * aez;
  const Expansion blift = bex * bex + bey * bey + bez * bez;
  const Expansion clift = cex * cex + cey * cey + cez * cez;
  const Expansion dlift = dex * dex + dey * dey + dez * dez;

  const Expansion det =
      (dlift * abc - clift * dab) + (blift * cda - alift * bcd);
  return det.sign();
}

int orient3d(const Vec3& a, const Vec3& b, const Vec3& c, const Vec3& d) {
  CounterSlot& counters = my_counter_slot();
  bump(counters, kO3dCalls);

  const double adx = a.x - d.x, ady = a.y - d.y, adz = a.z - d.z;
  const double bdx = b.x - d.x, bdy = b.y - d.y, bdz = b.z - d.z;
  const double cdx = c.x - d.x, cdy = c.y - d.y, cdz = c.z - d.z;

  const double bdxcdy = bdx * cdy, cdxbdy = cdx * bdy;
  const double cdxady = cdx * ady, adxcdy = adx * cdy;
  const double adxbdy = adx * bdy, bdxady = bdx * ady;

  const double det = adz * (bdxcdy - cdxbdy) + bdz * (cdxady - adxcdy) +
                     cdz * (adxbdy - bdxady);

  const double permanent =
      (std::fabs(bdxcdy) + std::fabs(cdxbdy)) * std::fabs(adz) +
      (std::fabs(cdxady) + std::fabs(adxcdy)) * std::fabs(bdz) +
      (std::fabs(adxbdy) + std::fabs(bdxady)) * std::fabs(cdz);
  const double errbound = kO3dErrBoundA * permanent;
  if (det > errbound || -det > errbound) return (det > 0.0) - (det < 0.0);

  bump(counters, kO3dAdapt);
  int sign;
  if (orient3d_adapt(a, b, c, d, permanent, sign)) return sign;

  bump(counters, kO3dExact);
  return orient3d_exact(a, b, c, d);
}

int insphere(const Vec3& a, const Vec3& b, const Vec3& c, const Vec3& d,
             const Vec3& e) {
  CounterSlot& counters = my_counter_slot();
  bump(counters, kIspCalls);

  const double aex = a.x - e.x, aey = a.y - e.y, aez = a.z - e.z;
  const double bex = b.x - e.x, bey = b.y - e.y, bez = b.z - e.z;
  const double cex = c.x - e.x, cey = c.y - e.y, cez = c.z - e.z;
  const double dex = d.x - e.x, dey = d.y - e.y, dez = d.z - e.z;

  const double aexbey = aex * bey, bexaey = bex * aey;
  const double bexcey = bex * cey, cexbey = cex * bey;
  const double cexdey = cex * dey, dexcey = dex * cey;
  const double dexaey = dex * aey, aexdey = aex * dey;
  const double aexcey = aex * cey, cexaey = cex * aey;
  const double bexdey = bex * dey, dexbey = dex * bey;

  const double ab = aexbey - bexaey;
  const double bc = bexcey - cexbey;
  const double cd = cexdey - dexcey;
  const double da = dexaey - aexdey;
  const double ac = aexcey - cexaey;
  const double bd = bexdey - dexbey;

  const double abc = aez * bc - bez * ac + cez * ab;
  const double bcd = bez * cd - cez * bd + dez * bc;
  const double cda = cez * da + dez * ac + aez * cd;
  const double dab = dez * ab + aez * bd + bez * da;

  const double alift = aex * aex + aey * aey + aez * aez;
  const double blift = bex * bex + bey * bey + bez * bez;
  const double clift = cex * cex + cey * cey + cez * cez;
  const double dlift = dex * dex + dey * dey + dez * dez;

  const double det = (dlift * abc - clift * dab) + (blift * cda - alift * bcd);

  const double aezplus = std::fabs(aez), bezplus = std::fabs(bez);
  const double cezplus = std::fabs(cez), dezplus = std::fabs(dez);
  const double aexbeyplus = std::fabs(aexbey), bexaeyplus = std::fabs(bexaey);
  const double bexceyplus = std::fabs(bexcey), cexbeyplus = std::fabs(cexbey);
  const double cexdeyplus = std::fabs(cexdey), dexceyplus = std::fabs(dexcey);
  const double dexaeyplus = std::fabs(dexaey), aexdeyplus = std::fabs(aexdey);
  const double aexceyplus = std::fabs(aexcey), cexaeyplus = std::fabs(cexaey);
  const double bexdeyplus = std::fabs(bexdey), dexbeyplus = std::fabs(dexbey);

  const double permanent =
      ((cexdeyplus + dexceyplus) * bezplus + (dexbeyplus + bexdeyplus) * cezplus +
       (bexceyplus + cexbeyplus) * dezplus) * alift +
      ((dexaeyplus + aexdeyplus) * cezplus + (aexceyplus + cexaeyplus) * dezplus +
       (cexdeyplus + dexceyplus) * aezplus) * blift +
      ((aexbeyplus + bexaeyplus) * dezplus + (bexdeyplus + dexbeyplus) * aezplus +
       (dexaeyplus + aexdeyplus) * bezplus) * clift +
      ((bexceyplus + cexbeyplus) * aezplus + (cexaeyplus + aexceyplus) * bezplus +
       (aexbeyplus + bexaeyplus) * cezplus) * dlift;
  const double errbound = kIspErrBoundA * permanent;
  if (det > errbound || -det > errbound) return (det > 0.0) - (det < 0.0);

  bump(counters, kIspAdapt);
  int sign;
  if (insphere_adapt(a, b, c, d, e, permanent, sign)) return sign;

  bump(counters, kIspExact);
  return insphere_exact(a, b, c, d, e);
}

PredicateCounters predicate_counters() {
  return {sum_counters(kO3dCalls), sum_counters(kO3dAdapt),
          sum_counters(kO3dExact), sum_counters(kIspCalls),
          sum_counters(kIspAdapt), sum_counters(kIspExact)};
}

void reset_predicate_counters() {
  for (CounterSlot& s : g_counters) {
    for (auto& c : s.c) c.store(0, std::memory_order_relaxed);
  }
}

}  // namespace pi2m
