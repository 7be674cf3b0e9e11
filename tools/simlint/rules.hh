/**
 * @file
 * simlint rule registry. Each rule encodes one simulator-modeling
 * hazard. The v1 rules are heuristic token-pattern matchers; the
 * flow-sensitive rules (fifo-unguarded-push, device-zero-hardcode,
 * icn-credit-leak) run on per-function control flow graphs with a
 * must-dataflow engine (see cfg.hh, dataflow.hh).
 * Any finding can be suppressed with an `allow(<rule>)` control
 * comment on the finding's anchor line or the line directly above
 * it; an allow() that suppresses nothing is itself reported as
 * `unused-suppression` so stale suppressions cannot linger.
 */

#ifndef SIMLINT_RULES_HH
#define SIMLINT_RULES_HH

#include <string>
#include <vector>

#include "lexer.hh"

namespace simlint
{

/** One diagnostic. */
struct Finding
{
    std::string path;
    int line = 0;
    std::string rule;
    std::string message;
};

/** Static description of a rule, for --list-rules and SARIF. */
struct RuleInfo
{
    std::string name;
    std::string description;
    bool srcOnly; ///< applies only under src/ (simulator library)
};

/** All registered rules. */
const std::vector<RuleInfo> &ruleRegistry();

/** Everything one analysis pass produced for one file. */
struct RuleResults
{
    /** Findings surviving allow() suppression, (line, rule) sorted. */
    std::vector<Finding> findings;
    /** Allow directives that suppressed no finding (stale). */
    std::vector<Directive> unusedAllows;
};

/**
 * Run every applicable rule over @p file. @p treatAsSrc forces the
 * src/-scoped rules on regardless of path (fixture self-tests).
 * @p companion, when given, is the lexed paired header of a .cc
 * file; its declarations seed the symbol table so member fifos
 * declared in the header are visible to the flow rules.
 */
RuleResults runRules(const LexedFile &file, bool treatAsSrc = false,
                     const LexedFile *companion = nullptr);

} // namespace simlint

#endif // SIMLINT_RULES_HH
