#include "obs/trace.h"

#include <chrono>
#include <string>
#include <thread>
#include <utility>

#include <gtest/gtest.h>

namespace aqp {
namespace obs {
namespace {

TEST(TraceTest, SpansNestUnderInnermostOpenSpan) {
  QueryTrace trace("query");
  {
    TraceSpan pilot = trace.Span("pilot");
    TraceSpan scan = trace.Span("scan");  // Child of pilot.
    scan.AddAttr("rows", uint64_t{1024});
  }  // Both close (LIFO) at scope exit.
  TraceSpan plan = trace.Span("plan");  // Sibling of pilot.
  plan.End();
  trace.Finish();

  const SpanRecord& root = trace.root();
  ASSERT_EQ(root.children.size(), 2u);
  EXPECT_EQ(root.children[0]->name, "pilot");
  EXPECT_EQ(root.children[1]->name, "plan");
  ASSERT_EQ(root.children[0]->children.size(), 1u);
  const SpanRecord& scan = *root.children[0]->children[0];
  EXPECT_EQ(scan.name, "scan");
  ASSERT_EQ(scan.attrs.size(), 1u);
  EXPECT_EQ(scan.attrs[0].first, "rows");
  EXPECT_EQ(scan.attrs[0].second, "1024");
}

TEST(TraceTest, ClosingAParentClosesOpenDescendants) {
  QueryTrace trace;
  TraceSpan outer = trace.Span("outer");
  TraceSpan inner = trace.Span("inner");
  outer.End();  // Implicitly closes `inner` first.
  trace.Finish();
  EXPECT_FALSE(trace.root().children[0]->open);
  EXPECT_FALSE(trace.root().children[0]->children[0]->open);
  inner.End();  // Already closed: must be a safe no-op.
}

TEST(TraceTest, TimingIsMonotoneAndNested) {
  QueryTrace trace;
  TraceSpan outer = trace.Span("outer");
  TraceSpan inner = trace.Span("inner");
  inner.End();
  outer.End();
  trace.Finish();
  const SpanRecord& o = *trace.root().children[0];
  const SpanRecord& i = *o.children[0];
  EXPECT_GE(o.start_seconds, 0.0);
  EXPECT_GE(i.start_seconds, o.start_seconds);
  EXPECT_GE(i.duration_seconds, 0.0);
  // A child's interval fits inside its parent's.
  EXPECT_LE(i.start_seconds + i.duration_seconds,
            o.start_seconds + o.duration_seconds + 1e-9);
  // The root covers everything.
  EXPECT_GE(trace.root().duration_seconds,
            o.start_seconds + o.duration_seconds - 1e-9);
}

TEST(TraceTest, DefaultConstructedSpanIsInert) {
  TraceSpan inert;
  EXPECT_FALSE(inert.active());
  inert.AddAttr("k", "v");  // No-op, must not crash.
  inert.End();
}

// Spins until the steady clock has moved past `since`.
void WaitForClockTick(std::chrono::steady_clock::time_point since) {
  while (std::chrono::steady_clock::now() <= since) {
  }
}

TEST(TraceTest, EndReturnsTheRecordedDuration) {
  QueryTrace trace;
  TraceSpan outer = trace.Span("outer");
  TraceSpan inner = trace.Span("inner");
  WaitForClockTick(std::chrono::steady_clock::now());
  const double outer_seconds = outer.End();  // Closes `inner` with it.
  const SpanRecord& o = *trace.root().children[0];
  EXPECT_EQ(outer_seconds, o.duration_seconds);
  EXPECT_GT(outer_seconds, 0.0);
  EXPECT_EQ(outer.End(), outer_seconds);  // Idempotent.
  EXPECT_EQ(inner.End(), o.children[0]->duration_seconds);
}

TEST(TraceTest, InertSpanTimesItselfAndRecordsNothing) {
  TraceSpan inert = MaybeSpan(nullptr, "stage");
  WaitForClockTick(std::chrono::steady_clock::now());
  const double seconds = inert.End();
  EXPECT_GT(seconds, 0.0);
  EXPECT_EQ(inert.End(), seconds);
  // A moved-to inert span keeps the original start.
  TraceSpan a;
  WaitForClockTick(std::chrono::steady_clock::now());
  TraceSpan b = std::move(a);
  EXPECT_GT(b.End(), 0.0);
}

TEST(TraceTest, MaybeSpanOnNullTraceIsInert) {
  TraceSpan span = MaybeSpan(nullptr, "stage");
  EXPECT_FALSE(span.active());
  QueryTrace trace;
  TraceSpan real = MaybeSpan(&trace, "stage");
  EXPECT_TRUE(real.active());
}

TEST(TraceTest, MoveTransfersOwnershipOfTheOpenSpan) {
  QueryTrace trace;
  TraceSpan a = trace.Span("stage");
  TraceSpan b = std::move(a);
  EXPECT_FALSE(a.active());
  EXPECT_TRUE(b.active());
  b.End();
  trace.Finish();
  EXPECT_FALSE(trace.root().children[0]->open);
}

TEST(TraceTest, TextRenderingShowsTreeAndAttrs) {
  QueryTrace trace("query");
  {
    TraceSpan pilot = trace.Span("pilot");
    pilot.AddAttr("rate", 0.01);
  }
  trace.Finish();
  std::string text = trace.ToText();
  EXPECT_NE(text.find("query"), std::string::npos);
  EXPECT_NE(text.find("  pilot"), std::string::npos);  // Indented one level.
  EXPECT_NE(text.find("[rate=0.01]"), std::string::npos);
  EXPECT_NE(text.find("ms"), std::string::npos);
}

TEST(TraceTest, JsonRenderingNestsChildren) {
  QueryTrace trace("query");
  {
    TraceSpan pilot = trace.Span("pilot");
    TraceSpan scan = trace.Span("scan");
  }
  trace.Finish();
  std::string json = trace.ToJson();
  EXPECT_NE(json.find("\"name\":\"query\""), std::string::npos);
  EXPECT_NE(json.find("\"children\":[{\"name\":\"pilot\""),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"scan\""), std::string::npos);
  EXPECT_NE(json.find("\"duration_seconds\":"), std::string::npos);
}

TEST(TraceTest, CopyIsDeepAndIndependent) {
  QueryTrace trace("query");
  { TraceSpan s = trace.Span("stage"); }
  trace.Finish();
  QueryTrace copy = trace;
  ASSERT_EQ(copy.root().children.size(), 1u);
  EXPECT_NE(&copy.root(), &trace.root());
  copy.mutable_root().name = "renamed";
  EXPECT_EQ(trace.root().name, "query");
  // The copy accepts new spans (its cursor reset to the root).
  { TraceSpan extra = copy.Span("extra"); }
  EXPECT_EQ(copy.root().children.size(), 2u);
  EXPECT_EQ(trace.root().children.size(), 1u);
}

TEST(TraceTest, CopyWhileSpansAreOpenResetsTheCursorToTheRoot) {
  QueryTrace trace("query");
  TraceSpan outer = trace.Span("outer");
  TraceSpan inner = trace.Span("inner");  // Both still open.

  QueryTrace copy = trace;
  // The copy preserved the tree shape (open flags included)...
  ASSERT_EQ(copy.root().children.size(), 1u);
  EXPECT_TRUE(copy.root().children[0]->open);
  EXPECT_TRUE(copy.root().children[0]->children[0]->open);
  // ...but its cursor is at the root: a new span lands as a root child, NOT
  // under the copied (open) "inner" span, whose TraceSpan handles still
  // point into the ORIGINAL tree.
  { TraceSpan fresh = copy.Span("fresh"); }
  ASSERT_EQ(copy.root().children.size(), 2u);
  EXPECT_EQ(copy.root().children[1]->name, "fresh");

  // The original's cursor is untouched: its next span nests under "inner".
  { TraceSpan nested = trace.Span("nested"); }
  inner.End();
  outer.End();
  ASSERT_EQ(trace.root().children.size(), 1u);
  const SpanRecord& orig_inner = *trace.root().children[0]->children[0];
  ASSERT_EQ(orig_inner.children.size(), 1u);
  EXPECT_EQ(orig_inner.children[0]->name, "nested");
}

TEST(TraceTest, CopyAssignmentReplacesTheTreeDeeply) {
  QueryTrace a("a");
  { TraceSpan s = a.Span("a-stage"); }
  a.Finish();
  QueryTrace b("b");
  { TraceSpan s = b.Span("b-stage"); }
  b = a;
  ASSERT_EQ(b.root().children.size(), 1u);
  EXPECT_EQ(b.root().name, "a");
  EXPECT_EQ(b.root().children[0]->name, "a-stage");
  b.mutable_root().children[0]->name = "mutated";
  EXPECT_EQ(a.root().children[0]->name, "a-stage");
}

TEST(TraceTest, MoveTransfersTheTreeWithoutReallocation) {
  QueryTrace trace("query");
  { TraceSpan s = trace.Span("stage"); }
  trace.Finish();
  const SpanRecord* stable = &trace.root();
  QueryTrace moved = std::move(trace);
  // The span tree lives behind a stable pointer: moving the trace moves the
  // tree itself, which is what lets the service hand a finished submit
  // trace to the result profile without copying every node.
  EXPECT_EQ(&moved.root(), stable);
  ASSERT_EQ(moved.root().children.size(), 1u);
  EXPECT_EQ(moved.root().children[0]->name, "stage");
}

TEST(TraceTest, MaybeSpanNestsAcrossThreads) {
  // The service pattern: the submitting thread opens the trace and an
  // admission span, then the pool thread continues the SAME trace. The
  // trace is not thread-safe, but strictly sequential cross-thread use
  // (with a happens-before edge, here thread join) must nest correctly.
  QueryTrace trace("submit");
  TraceSpan admission = MaybeSpan(&trace, "admission");
  admission.End();

  std::thread pool_thread([&trace] {
    TraceSpan exec = MaybeSpan(&trace, "execute");
    TraceSpan morsel = MaybeSpan(&trace, "morsel");  // Child of execute.
    morsel.AddAttr("index", uint64_t{0});
    morsel.End();
    exec.End();
  });
  pool_thread.join();
  trace.Finish();

  ASSERT_EQ(trace.root().children.size(), 2u);
  EXPECT_EQ(trace.root().children[0]->name, "admission");
  const SpanRecord& exec = *trace.root().children[1];
  EXPECT_EQ(exec.name, "execute");
  ASSERT_EQ(exec.children.size(), 1u);
  EXPECT_EQ(exec.children[0]->name, "morsel");
  EXPECT_FALSE(exec.open);
}

}  // namespace
}  // namespace obs
}  // namespace aqp
