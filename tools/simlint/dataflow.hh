/**
 * @file
 * Intraprocedural dataflow framework for simlint v2.
 *
 * Two solvers over a Cfg, both with set-intersection meet (must
 * analyses) and a small monotone domain: facts are rule-defined
 * small integers (e.g. one fact per fifo variable meaning "a
 * full()/space() back-pressure consult happened"), generated at
 * specific tokens and never killed — within one function our
 * abstract values only strengthen (guarded stays guarded, popped
 * stays popped).
 *
 *  - ForwardMust: fact f holds *before* token t iff every path from
 *    the function entry to t passes a gen point of f. This is
 *    "a gen point dominates t", generalized to multiple gen sites.
 *  - BackwardMust: fact f holds *after* token t iff every path from
 *    t to the function exit passes a gen point of f — i.e. the gen
 *    points collectively post-dominate t ("a credit return is
 *    unavoidable from here").
 */

#ifndef SIMLINT_DATAFLOW_HH
#define SIMLINT_DATAFLOW_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cfg.hh"

namespace simlint
{

/** A dynamically sized bitset of facts. */
class FactSet
{
  public:
    FactSet() = default;
    explicit FactSet(int numFacts, bool full = false);

    void set(int f);
    bool test(int f) const;
    /** this &= o; returns true if anything changed. */
    bool intersectWith(const FactSet &o);
    /** this |= o. */
    void uniteWith(const FactSet &o);
    bool operator==(const FactSet &o) const { return w == o.w; }

  private:
    std::vector<std::uint64_t> w;
};

/** Shared machinery of the two solvers. */
class MustAnalysis
{
  public:
    MustAnalysis(const Cfg &cfg, int numFacts);

    /** Register that fact @p f becomes true at token @p tok. */
    void genAt(std::size_t tok, int f);

  protected:
    const Cfg &cfg;
    int numFacts;
    /** (token, fact) gen points, per block, token-sorted. */
    std::vector<std::vector<std::pair<std::size_t, int>>> genOf;
    std::vector<FactSet> blockGen; ///< all facts gen'd in a block
};

/** See file header. Call solve() after the last genAt(). */
class ForwardMust : public MustAnalysis
{
  public:
    using MustAnalysis::MustAnalysis;

    void solve();
    /** Does @p f hold on every path *before* token @p tok? */
    bool holdsBefore(std::size_t tok, int f) const;

  private:
    std::vector<FactSet> in;
};

/** See file header. Call solve() after the last genAt(). */
class BackwardMust : public MustAnalysis
{
  public:
    using MustAnalysis::MustAnalysis;

    void solve();
    /** Is @p f generated on every path *after* token @p tok? */
    bool holdsAfter(std::size_t tok, int f) const;

  private:
    std::vector<FactSet> out;
};

} // namespace simlint

#endif // SIMLINT_DATAFLOW_HH
