#include "sim/simulation.hh"

#include <algorithm>
#include <sstream>

#include "common/logging.hh"
#include "common/sim_error.hh"
#include "sim/fault.hh"
#include "stats/timeseries.hh"
#include "trace/trace.hh"

namespace scusim::sim
{

Simulation::Simulation() = default;
Simulation::~Simulation() = default;

void
Simulation::addClocked(Clocked *c, std::string name)
{
    panic_if(c->schedOwner && c->schedOwner != this,
             "Clocked object registered with two Simulations");
    c->schedOwner = this;
    if (name.empty())
        name = "clocked#" + std::to_string(clockedList.size());
    clockedList.push_back(c);
    clockedNames.push_back(std::move(name));
}

void
Simulation::installFaultInjector(std::unique_ptr<FaultInjector> inj)
{
    injector = std::move(inj);
}

void
Simulation::installTraceSink(std::unique_ptr<trace::TraceSink> sink)
{
    tracer = std::move(sink);
    simChan = tracer ? tracer->channel("sim") : nullptr;
}

void
Simulation::addTimeseries(stats::Timeseries *ts)
{
    if (ts)
        timeseries.push_back(ts);
}

void
Simulation::sampleTimeseries(Tick now)
{
    for (stats::Timeseries *ts : timeseries)
        ts->sampleUpTo(now);
}

std::string
Simulation::diagnosticDump() const
{
    std::ostringstream os;
    os << "tick " << currentTick << "\n";
    for (std::size_t i = 0; i < clockedList.size(); ++i) {
        const Clocked *c = clockedList[i];
        os << clockedNames[i] << ": busy="
           << (c->busy(currentTick) ? "yes" : "no");
        Tick wake = c->nextWakeTick();
        os << " wake=";
        if (wake == tickNever)
            os << "never";
        else
            os << wake;
        os << " progress=" << c->progressCount();
        if (injector &&
            injector->frozen(static_cast<unsigned>(i), currentTick))
            os << " [frozen by fault injector]";
        os << "\n";
    }
    if (injector)
        os << injector->summary() << "\n";
    // On a hang the most recent trace events are the closest thing to
    // a flight recorder — attach the tail of every ring buffer.
    if (tracer)
        os << tracer->tailDump();
    return os.str();
}

Tick
Simulation::nextInterestingTick() const
{
    Tick t = tickNever;
    for (const auto *c : clockedList) {
        if (c->busy(currentTick))
            return currentTick;
        t = std::min(t, c->nextWakeTick());
    }
    return t;
}

std::uint64_t
Simulation::progressStamp() const
{
    std::uint64_t stamp = 0;
    for (const auto *c : clockedList)
        stamp += c->progressCount();
    return stamp;
}

void
Simulation::stepOnce()
{
    // Registration order is part of the model: components share the
    // analytic memory system within a tick, so an earlier component's
    // accesses are visible to a later one's in the same cycle.
    for (std::size_t j = 0; j < clockedList.size(); ++j) {
        Clocked *c = clockedList[j];
        // A frozen component keeps claiming to be busy but is never
        // ticked — exactly the hang mode the deadlock watchdog exists
        // to catch.
        if (injector &&
            injector->frozen(static_cast<unsigned>(j), currentTick))
            continue;
        if (c->busy(currentTick)) {
            c->noteTick(currentTick);
            c->tick(currentTick);
        }
    }
    ++currentTick;
}

void
Simulation::step(Tick n)
{
    for (Tick i = 0; i < n; ++i)
        stepOnce();
    if (!timeseries.empty())
        sampleTimeseries(currentTick);
}

Tick
Simulation::run(Tick max_ticks)
{
    const Tick start = currentTick;
    const Tick budget = wd.tickBudget;
    std::uint64_t lastStamp = progressStamp();
    Tick stallStart = currentTick;
    std::uint64_t iters = 0;
    while (true) {
        if (injector)
            injector->checkPanic(currentTick);
        if (supervisor && (iters++ & 1023) == 0)
            supervisor->checkpoint(currentTick);
        Tick next = nextInterestingTick();
        if (next == tickNever)
            break;
        if (next > currentTick) {
            // Idle gap: jump straight to the next wake-up.
            currentTick = next;
        }
        stepOnce();
        if (!timeseries.empty())
            sampleTimeseries(currentTick);
        const bool over_budget =
            budget ? currentTick > budget
                   : currentTick - start > max_ticks;
        if (over_budget) {
            reportFailure(
                FailureKind::Runaway,
                strprintf(
                    "simulation exceeded %llu ticks without draining",
                    static_cast<unsigned long long>(
                        budget ? budget : max_ticks)),
                diagnosticDump());
        }
        if (wd.stallWindow) {
            std::uint64_t stamp = progressStamp();
            if (stamp != lastStamp) {
                lastStamp = stamp;
                stallStart = currentTick;
            } else if (currentTick - stallStart >= wd.stallWindow) {
                reportFailure(
                    FailureKind::Deadlock,
                    strprintf("no component progress for %llu ticks "
                              "while busy (deadlock)",
                              static_cast<unsigned long long>(
                                  wd.stallWindow)),
                    diagnosticDump());
            }
        }
    }
    TRACE_EVENT_SPAN(simChan, trace::Category::Sim, "run", start,
                     currentTick, iters);
    return currentTick - start;
}

void
Simulation::advanceTo(Tick t)
{
    if (t <= currentTick)
        return;
    if (injector)
        injector->checkPanic(currentTick);
    if (wd.tickBudget && t > wd.tickBudget) {
        reportFailure(
            FailureKind::Runaway,
            strprintf("simulation exceeded %llu ticks without "
                      "draining (analytic completion at %llu)",
                      static_cast<unsigned long long>(wd.tickBudget),
                      static_cast<unsigned long long>(t)),
            diagnosticDump());
    }
    currentTick = t;
    if (!timeseries.empty())
        sampleTimeseries(currentTick);
    if (supervisor)
        supervisor->checkpoint(currentTick);
}

} // namespace scusim::sim
