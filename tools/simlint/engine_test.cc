/**
 * @file
 * Unit tests for the simlint v2 analysis engine: CFG construction,
 * dominators / post-dominators, the must-dataflow solvers, the
 * symbol table (including companion-header seeding), and end-to-end
 * rule behavior on small snippets.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cfg.hh"
#include "dataflow.hh"
#include "lexer.hh"
#include "rules.hh"

using namespace simlint;

namespace
{

struct Built
{
    LexedFile file;
    Structure st;
    std::vector<Cfg> cfgs;
};

Built
build(const std::string &src)
{
    Built b;
    b.file = lex("test.cc", src);
    b.st = analyzeStructure(b.file.tokens);
    b.cfgs = buildCfgs(b.file, b.st);
    return b;
}

/** Index of the @p nth token with text @p text (1-based). */
std::size_t
tok(const std::vector<Token> &toks, const std::string &text,
    int nth = 1)
{
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (toks[i].text == text && --nth == 0)
            return i;
    }
    ADD_FAILURE() << "token not found: " << text;
    return 0;
}

TEST(CfgTest, StraightLineIsOneBlock)
{
    Built b = build("void f() { alpha(); beta(); }");
    ASSERT_EQ(b.cfgs.size(), 1u);
    const Cfg &c = b.cfgs[0];
    EXPECT_EQ(c.fnName, "f");
    EXPECT_TRUE(c.scopeName.empty());
    EXPECT_EQ(c.blockAt(tok(b.file.tokens, "alpha")),
              c.blockAt(tok(b.file.tokens, "beta")));
}

TEST(CfgTest, IfSplitsFlowAndJoins)
{
    Built b = build("void f(int c) {"
                    "  if (c) { alpha(); }"
                    "  beta();"
                    "}");
    ASSERT_EQ(b.cfgs.size(), 1u);
    const Cfg &c = b.cfgs[0];
    int condB = c.blockAt(tok(b.file.tokens, "c", 2));
    int thenB = c.blockAt(tok(b.file.tokens, "alpha"));
    int joinB = c.blockAt(tok(b.file.tokens, "beta"));
    ASSERT_GE(condB, 0);
    ASSERT_GE(thenB, 0);
    ASSERT_GE(joinB, 0);
    EXPECT_NE(thenB, joinB);
    // The condition dominates both arms; the then-arm dominates
    // neither the join nor the exit.
    EXPECT_TRUE(c.dominates(condB, thenB));
    EXPECT_TRUE(c.dominates(condB, joinB));
    EXPECT_FALSE(c.dominates(thenB, joinB));
    // The join has two predecessors: fallthrough and the then-arm.
    EXPECT_EQ(c.blocks[joinB].preds.size(), 2u);
    // And it post-dominates the branch.
    EXPECT_TRUE(c.postDominates(joinB, condB));
    EXPECT_TRUE(c.postDominates(joinB, thenB));
}

TEST(CfgTest, EarlyReturnReachesExitDirectly)
{
    Built b = build("void f(int c) {"
                    "  if (c) return;"
                    "  alpha();"
                    "}");
    const Cfg &c = b.cfgs.at(0);
    int tailB = c.blockAt(tok(b.file.tokens, "alpha"));
    ASSERT_GE(tailB, 0);
    // The tail does NOT post-dominate the branch: the return path
    // bypasses it.
    int condB = c.blockAt(tok(b.file.tokens, "c", 2));
    EXPECT_FALSE(c.postDominates(tailB, condB));
    EXPECT_GE(c.blocks[c.exit].preds.size(), 2u);
}

TEST(CfgTest, WhileMakesALoopHeader)
{
    Built b = build("void f(int cond) {"
                    "  while (cond) { body(); }"
                    "  after();"
                    "}");
    const Cfg &c = b.cfgs.at(0);
    int headB = c.blockAt(tok(b.file.tokens, "cond", 2));
    int bodyB = c.blockAt(tok(b.file.tokens, "body"));
    int afterB = c.blockAt(tok(b.file.tokens, "after"));
    ASSERT_GE(headB, 0);
    EXPECT_TRUE(c.isLoopHeader(headB));
    EXPECT_FALSE(c.isLoopHeader(bodyB));
    EXPECT_FALSE(c.isLoopHeader(afterB));
    // The header dominates the body and the loop exit.
    EXPECT_TRUE(c.dominates(headB, bodyB));
    EXPECT_TRUE(c.dominates(headB, afterB));
}

TEST(CfgTest, ForLoopHeaderAndExit)
{
    Built b = build("void f(int n) {"
                    "  for (int i = 0; i < n; ++i) { body(); }"
                    "  after();"
                    "}");
    const Cfg &c = b.cfgs.at(0);
    int headB = c.blockAt(tok(b.file.tokens, "<"));
    int bodyB = c.blockAt(tok(b.file.tokens, "body"));
    ASSERT_GE(headB, 0);
    EXPECT_TRUE(c.isLoopHeader(headB));
    EXPECT_TRUE(c.dominates(headB, bodyB));
}

TEST(CfgTest, OutOfLineMemberNames)
{
    Built b = build("void Worker::tick() { alpha(); }");
    ASSERT_EQ(b.cfgs.size(), 1u);
    EXPECT_EQ(b.cfgs[0].fnName, "tick");
    EXPECT_EQ(b.cfgs[0].scopeName, "Worker");
}

TEST(CfgTest, InlineMethodGetsClassScope)
{
    Built b = build("struct Worker {"
                    "  void tick() { alpha(); }"
                    "};");
    ASSERT_EQ(b.cfgs.size(), 1u);
    EXPECT_EQ(b.cfgs[0].fnName, "tick");
    EXPECT_EQ(b.cfgs[0].scopeName, "Worker");
}

TEST(CfgTest, LambdaFoldsIntoEnclosingFlow)
{
    Built b = build("void f(int c) {"
                    "  if (c) return;"
                    "  auto g = [&] { inner(); };"
                    "  g();"
                    "}");
    // One CFG (the lambda does not become its own function), and the
    // lambda body joins the block after the branch.
    ASSERT_EQ(b.cfgs.size(), 1u);
    const Cfg &c = b.cfgs[0];
    int innerB = c.blockAt(tok(b.file.tokens, "inner"));
    int condB = c.blockAt(tok(b.file.tokens, "c", 2));
    ASSERT_GE(innerB, 0);
    EXPECT_TRUE(c.dominates(condB, innerB));
}

TEST(DataflowTest, ForwardMustNeedsAllPaths)
{
    Built b = build("void f(int c) {"
                    "  if (c) { gen1(); } else { gen2(); }"
                    "  use();"
                    "}");
    const Cfg &c = b.cfgs.at(0);
    std::size_t useTok = tok(b.file.tokens, "use");

    // Gen on both arms: holds at the join.
    {
        ForwardMust fm(c, 1);
        fm.genAt(tok(b.file.tokens, "gen1"), 0);
        fm.genAt(tok(b.file.tokens, "gen2"), 0);
        fm.solve();
        EXPECT_TRUE(fm.holdsBefore(useTok, 0));
    }
    // Gen on one arm only: must-intersection kills it.
    {
        ForwardMust fm(c, 1);
        fm.genAt(tok(b.file.tokens, "gen1"), 0);
        fm.solve();
        EXPECT_FALSE(fm.holdsBefore(useTok, 0));
    }
}

TEST(DataflowTest, ForwardMustRespectsOrderWithinBlock)
{
    Built b = build("void f() { early(); gen(); late(); }");
    const Cfg &c = b.cfgs.at(0);
    ForwardMust fm(c, 1);
    fm.genAt(tok(b.file.tokens, "gen"), 0);
    fm.solve();
    EXPECT_FALSE(fm.holdsBefore(tok(b.file.tokens, "early"), 0));
    EXPECT_TRUE(fm.holdsBefore(tok(b.file.tokens, "late"), 0));
}

TEST(DataflowTest, BackwardMustIsPostDominance)
{
    Built b = build("void f(int c) {"
                    "  use();"
                    "  if (c) { gen1(); } else { gen2(); }"
                    "}");
    const Cfg &c = b.cfgs.at(0);
    std::size_t useTok = tok(b.file.tokens, "use");
    {
        BackwardMust bm(c, 1);
        bm.genAt(tok(b.file.tokens, "gen1"), 0);
        bm.genAt(tok(b.file.tokens, "gen2"), 0);
        bm.solve();
        EXPECT_TRUE(bm.holdsAfter(useTok, 0));
    }
    {
        BackwardMust bm(c, 1);
        bm.genAt(tok(b.file.tokens, "gen1"), 0);
        bm.solve();
        EXPECT_FALSE(bm.holdsAfter(useTok, 0));
    }
}

TEST(SymbolTest, CollectsParamsLocalsAndMembers)
{
    LexedFile f = lex(
        "t.cc",
        "struct S { BoundedFifo<int> inbox{4}; };"
        "void g(BoundedFifo<int> &param) {"
        "  BoundedFifo<int> local(2);"
        "}");
    SymbolTable syms;
    syms.collect(f.tokens, {"BoundedFifo"});
    EXPECT_TRUE(syms.has("inbox"));
    EXPECT_TRUE(syms.has("param"));
    EXPECT_TRUE(syms.has("local"));
    EXPECT_FALSE(syms.has("g"));
    EXPECT_EQ(syms.typeOf("inbox"), "BoundedFifo");
    EXPECT_NE(syms.declTokOf("local"),
              static_cast<std::size_t>(-1));
}

TEST(SymbolTest, CompanionDeclarationsHaveNoLocalDeclTok)
{
    LexedFile hdr =
        lex("t.hh", "struct S { BoundedFifo<int> q; };");
    SymbolTable syms;
    syms.collect(hdr.tokens, {"BoundedFifo"}, /*companion=*/true);
    EXPECT_TRUE(syms.has("q"));
    EXPECT_EQ(syms.declTokOf("q"), static_cast<std::size_t>(-1));
}

TEST(RulesTest, UnguardedPushFires)
{
    LexedFile f = lex("t.cc",
                      "void p(BoundedFifo<int> &q) { q.push(1); }");
    RuleResults rr = runRules(f);
    ASSERT_EQ(rr.findings.size(), 1u);
    EXPECT_EQ(rr.findings[0].rule, "fifo-unguarded-push");
}

TEST(RulesTest, DominatingGuardSuppresses)
{
    LexedFile f = lex("t.cc",
                      "void p(BoundedFifo<int> &q) {"
                      "  if (q.full()) return;"
                      "  q.push(1);"
                      "}");
    EXPECT_TRUE(runRules(f).findings.empty());
}

TEST(RulesTest, BranchLocalGuardDoesNotSuppress)
{
    LexedFile f = lex("t.cc",
                      "void p(BoundedFifo<int> &q, bool v) {"
                      "  if (v) { bool b = q.full(); (void)b; }"
                      "  q.push(1);"
                      "}");
    ASSERT_EQ(runRules(f).findings.size(), 1u);
}

TEST(RulesTest, CompanionHeaderMakesMemberFifoVisible)
{
    LexedFile hdr =
        lex("t.hh", "struct S { BoundedFifo<int> q; void f(); };");
    LexedFile impl = lex("t.cc", "void S::f() { q.push(1); }");
    // Without the header the symbol is unknown: nothing fires.
    EXPECT_TRUE(runRules(impl).findings.empty());
    // With it, the unguarded member push is caught.
    RuleResults rr = runRules(impl, false, &hdr);
    ASSERT_EQ(rr.findings.size(), 1u);
    EXPECT_EQ(rr.findings[0].rule, "fifo-unguarded-push");
}

TEST(RulesTest, DeviceZeroFoldedThroughLocalConstFires)
{
    RuleResults rr = runRules(
        lex("t.cc",
            "int *p(System &sys, DeviceId dev) {"
            "  const DeviceId primary = 0;"
            "  return sys.memory(primary);"
            "}"));
    ASSERT_EQ(rr.findings.size(), 1u);
    EXPECT_EQ(rr.findings[0].rule, "device-zero-hardcode");

    // constexpr and brace-init fold the same way.
    rr = runRules(lex("t.cc",
                      "int *p(System &sys, DeviceId dev) {"
                      "  constexpr DeviceId kHost{0};"
                      "  return sys.gpuDevice(kHost);"
                      "}"));
    ASSERT_EQ(rr.findings.size(), 1u);
    EXPECT_EQ(rr.findings[0].rule, "device-zero-hardcode");

    // A non-zero constant is not a hardcoded zero...
    EXPECT_TRUE(runRules(lex("t.cc",
                             "int *p(System &sys, DeviceId dev) {"
                             "  const DeviceId next = 1;"
                             "  return sys.memory(next);"
                             "}"))
                    .findings.empty());
    // ...a mutable local may be reassigned, so it never folds...
    EXPECT_TRUE(runRules(lex("t.cc",
                             "int *p(System &sys, DeviceId dev) {"
                             "  DeviceId d = 0;"
                             "  d = dev;"
                             "  return sys.memory(d);"
                             "}"))
                    .findings.empty());
    // ...and a dominating device comparison still exempts.
    EXPECT_TRUE(runRules(lex("t.cc",
                             "int *p(System &sys, DeviceId dev) {"
                             "  const DeviceId primary = 0;"
                             "  if (dev == 0)"
                             "    return sys.gpuDevice(primary);"
                             "  return sys.memory(dev);"
                             "}"))
                    .findings.empty());
}

TEST(RulesTest, UnusedAllowIsTracked)
{
    LexedFile f = lex("t.cc",
                      "void p(BoundedFifo<int> &q) {\n"
                      "  if (q.full()) return;\n"
                      "  // simlint: allow(fifo-unguarded-push)\n"
                      "  q.push(1);\n"
                      "}\n");
    RuleResults rr = runRules(f);
    EXPECT_TRUE(rr.findings.empty());
    ASSERT_EQ(rr.unusedAllows.size(), 1u);
    EXPECT_EQ(rr.unusedAllows[0].rule, "fifo-unguarded-push");
}

} // namespace
