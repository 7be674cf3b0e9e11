/**
 * @file
 * A complete simulated system: clock, address space(s), memory
 * hierarchy, GPU, optional SCU and energy model, wired together the
 * way Figure 5 shows. The harness and the algorithms only ever talk
 * to this class.
 *
 * The system is device-indexed: `deviceCount` instances of
 * {SMs, SCU, L2, DRAM} share one Simulation timeline and one clock
 * domain, connected (when deviceCount > 1) by a modeled
 * inter-device Interconnect. With deviceCount == 1 (the default) the
 * layout — component parents, stat names, trace channel names,
 * address space contents — is exactly the historical single-device
 * one, which the dev1 golden digests of tests/determinism_test.cc
 * pin down byte-for-byte.
 */

#ifndef SCUSIM_HARNESS_SYSTEM_HH
#define SCUSIM_HARNESS_SYSTEM_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "energy/energy_model.hh"
#include "gpu/gpu.hh"
#include "gpu/gpu_config.hh"
#include "mem/address_space.hh"
#include "mem/interconnect.hh"
#include "mem/mem_system.hh"
#include "scu/scu.hh"
#include "scu/scu_config.hh"
#include "sim/clock.hh"
#include "sim/simulation.hh"
#include "stats/stats.hh"

namespace scusim::harness
{

/** How much of the SCU a run uses. */
enum class ScuMode
{
    GpuOnly,     ///< baseline: everything on the SMs
    ScuBasic,    ///< Section 3: compaction offloaded
    ScuEnhanced, ///< Section 4: + filtering and grouping
};

std::string to_string(ScuMode m);

/** Configuration bundle for a full system. */
struct SystemConfig
{
    gpu::GpuParams gpu;
    scu::ScuParams scu;
    energy::EnergyParams energy;
    bool withScu = true;

    /** Simulated devices; each gets its own SMs/SCU/L2/DRAM. */
    unsigned deviceCount = 1;
    /** Inter-device link model (used when deviceCount > 1). */
    mem::InterconnectParams icn;

    /** High-performance system (Tables 2/3). */
    static SystemConfig gtx980(bool with_scu = true);
    /** Low-power system (Tables 2/4). */
    static SystemConfig tx1(bool with_scu = true);

    /** Look up by name ("GTX980" / "TX1"). */
    static SystemConfig byName(const std::string &name,
                               bool with_scu = true);

    /** Whether byName() would accept @p name. */
    static bool isKnown(const std::string &name);
};

class System
{
  public:
    explicit System(const SystemConfig &cfg);

    sim::Simulation &simulation() { return sim; }

    unsigned
    deviceCount() const
    {
        return static_cast<unsigned>(devs.size());
    }

    mem::AddressSpace &addressSpace(DeviceId d = 0);
    mem::MemSystem &memory(DeviceId d = 0);
    gpu::Gpu &gpuDevice(DeviceId d = 0);
    bool hasScu() const { return devs[0].scuUnit != nullptr; }
    scu::Scu &scuDevice(DeviceId d = 0);

    bool hasInterconnect() const { return icnLink != nullptr; }
    mem::Interconnect &interconnect();

    const energy::EnergyModel &energyModel() const { return emodel; }
    const sim::ClockDomain &clock() const { return clk; }
    const SystemConfig &config() const { return cfg_; }
    stats::StatGroup &statsRoot() { return root; }

    /**
     * Distribute the Simulation's installed trace sink to every
     * component (no-op without a sink). Call once, right after
     * Simulation::installTraceSink and before any work runs, so the
     * channel creation order — and thus the exported track order —
     * stays deterministic. Single-device systems keep the historical
     * channel names; multi-device systems prefix each device's
     * channels with "d<i>." and add the "icn" channel last.
     */
    void attachTrace();

    /** Snapshot of every activity counter, summed over devices. */
    energy::Activity activitySnapshot() const;

    /** Snapshot of one device's activity counters. */
    energy::Activity activitySnapshot(DeviceId d) const;

    /**
     * Run @p f (a cluster of SCU operations on device @p d) and
     * attribute the activity delta it causes to the SCU side of the
     * split.
     */
    void scuSection(DeviceId d, const std::function<void()> &f);

    void
    scuSection(const std::function<void()> &f)
    {
        scuSection(0, f);
    }

    /** Activity attributed to SCU operations so far (all devices). */
    const energy::Activity &scuActivity() const { return scuAct; }

    /** Activity attributed to the GPU = total - SCU side. */
    energy::Activity
    gpuActivity() const
    {
        return activitySnapshot() - scuAct;
    }

    /** Seconds elapsed on the system timeline. */
    double
    elapsedSeconds() const
    {
        return clk.toSeconds(sim.now());
    }

  private:
    /** One simulated device's private components. */
    struct Device
    {
        /** Per-device stat group; null for single-device systems
         *  (components then parent directly to the root, preserving
         *  historical stat paths). */
        std::unique_ptr<stats::StatGroup> grp;
        std::unique_ptr<mem::AddressSpace> as;
        std::unique_ptr<mem::MemSystem> memsys;
        std::unique_ptr<gpu::Gpu> gpuModel;
        std::unique_ptr<scu::Scu> scuUnit;
    };

    SystemConfig cfg_;
    sim::ClockDomain clk;
    stats::StatGroup root;
    sim::Simulation sim;
    std::vector<Device> devs;
    std::unique_ptr<mem::Interconnect> icnLink;
    energy::EnergyModel emodel;
    energy::Activity scuAct;
};

} // namespace scusim::harness

#endif // SCUSIM_HARNESS_SYSTEM_HH
