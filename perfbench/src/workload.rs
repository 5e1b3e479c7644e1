//! The four workloads: their inputs, set-up, measured run step, and oracle.
//!
//! Every workload is a closed batch job at a fixed input size. Set-up takes
//! the input graph to "ready to run"; the run step drives it to completion;
//! the oracle decides whether the outputs are right.

use bp_compiler::{compile, CompileOptions, MappingKind};
use bp_core::graph::AppGraph;
use bp_core::machine::Mapping;
use bp_core::Result;
use bp_serve::{generate, FleetConfig, FleetHost, FleetReport, LoadPlan, TenantMix, TenantSpec};
use bp_sim::{
    Backend, CommModel, ParallelRunStats, ParallelTimedSimulator, SimConfig, SimReport,
    TimedSimulator,
};
use std::sync::Arc;

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `fig1b` 40x24 @ 200 Hz, greedy mapping, sequential engine.
    Fig1bSeq,
    /// `camera_bank(8)` 40x24 @ 200 Hz, one-to-one mapping, parallel
    /// engine on 2 threads.
    CameraBank2t,
    /// `fig1b` with a uniform 64-cycle inter-PE latency, parallel engine on
    /// 2 threads.
    Fig1bComm2t,
    /// A 256-tenant mixed fleet with metrics and QoS on, 2 workers.
    ServeMixed,
}

impl Workload {
    /// Every workload, in the order the docs list them.
    pub const ALL: [Workload; 4] = [
        Workload::Fig1bSeq,
        Workload::CameraBank2t,
        Workload::Fig1bComm2t,
        Workload::ServeMixed,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig1bSeq => "fig1b_seq",
            Workload::CameraBank2t => "camera_bank_2t",
            Workload::Fig1bComm2t => "fig1b_comm_2t",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    /// The workload with this name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The input size the benchmark measures.
    pub fn reference_size(self) -> Size {
        match self {
            Workload::Fig1bSeq => Size::frames(64),
            Workload::CameraBank2t => Size::frames(16),
            Workload::Fig1bComm2t => Size::frames(32),
            Workload::ServeMixed => Size {
                frames: 2,
                tenants: 256,
            },
        }
    }
}

/// Input size of one workload run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Size {
    /// Frames pushed through every input (per tenant for the fleet).
    pub frames: u32,
    /// Tenants offered to the fleet (unused by the simulator workloads).
    pub tenants: usize,
}

impl Size {
    /// A simulator-workload size.
    pub fn frames(frames: u32) -> Self {
        Self { frames, tenants: 0 }
    }
}

/// Real-time input rate of the simulator workloads, which their verdict
/// must meet.
pub const RATE_HZ: f64 = bp_apps::FAST;
/// Cameras in `camera_bank_2t`. Nine or more fail to compile (see the
/// known defect in the benchmark's README); eight is the configuration the
/// repository's own benchmark measures.
pub const CAMERAS: usize = 8;
/// Inter-PE latency of `fig1b_comm_2t`, in PE cycles.
pub const COMM_LATENCY_CYCLES: f64 = 64.0;
/// Fleet per-tenant event budget per round.
pub const ROUND_BUDGET: usize = 256;
/// Worker threads of the parallel engine and of the fleet host.
pub const THREADS: usize = 2;

/// A simulator workload: the input graph and how it is compiled and run.
pub struct SimCase {
    /// The uncompiled application graph.
    pub graph: AppGraph,
    /// Compiler options.
    pub opts: CompileOptions,
    /// Simulation config, without a pre-lowered program.
    pub config: SimConfig,
    /// Engine threads: 1 runs `TimedSimulator`, more run
    /// `ParallelTimedSimulator`.
    pub threads: usize,
}

/// A workload's inputs, built from its name, size and seed. Only the fleet
/// consumes the seed.
#[allow(clippy::large_enum_variant)] // one value per run
pub enum Case {
    /// A simulator workload.
    Sim(SimCase),
    /// The fleet's load plan.
    Serve(LoadPlan),
}

impl Case {
    /// Build the inputs of `workload` at `size`.
    pub fn new(workload: Workload, size: Size, seed: u64) -> Self {
        let machine = CompileOptions::default().machine;
        let (app, mapping, threads, comm) = match workload {
            Workload::Fig1bSeq => (
                bp_apps::fig1b(bp_apps::BIG, RATE_HZ),
                MappingKind::Greedy,
                1,
                CommModel::zero(),
            ),
            Workload::CameraBank2t => (
                bp_apps::camera_bank(CAMERAS, bp_apps::BIG, RATE_HZ),
                MappingKind::OneToOne,
                THREADS,
                CommModel::zero(),
            ),
            Workload::Fig1bComm2t => (
                bp_apps::fig1b(bp_apps::BIG, RATE_HZ),
                MappingKind::Greedy,
                THREADS,
                CommModel::uniform(COMM_LATENCY_CYCLES / machine.pe_clock_hz, 0.0),
            ),
            Workload::ServeMixed => {
                return Case::Serve(
                    LoadPlan::new(size.tenants, TenantMix::Mixed, seed)
                        .with_frames(size.frames)
                        .with_metrics()
                        .with_qos(),
                )
            }
        };
        let opts = CompileOptions {
            mapping,
            ..Default::default()
        };
        let config = SimConfig::new(size.frames)
            .with_machine(opts.machine)
            .with_comm(comm);
        Case::Sim(SimCase {
            graph: app.graph,
            opts,
            config,
            threads,
        })
    }

    /// Set-up: the input graph to "ready to run". Simulator workloads
    /// compile, lower and instantiate; the fleet generates (compiling every
    /// tenant) and enqueues.
    pub fn setup(&self) -> Result<Ready> {
        match self {
            Case::Sim(c) => {
                let compiled = compile(&c.graph, &c.opts)?;
                let program = Arc::new(compiled.lower_to_threaded()?);
                c.instantiate(
                    &compiled.graph,
                    &compiled.mapping,
                    c.config.clone().with_lowered(program),
                    c.threads,
                )
            }
            Case::Serve(plan) => Ok(Ready::Serve(fleet(generate(plan)?, THREADS))),
        }
    }
}

impl SimCase {
    /// Instantiate the engine for `threads` over a compiled graph.
    pub fn instantiate(
        &self,
        graph: &AppGraph,
        mapping: &Mapping,
        config: SimConfig,
        threads: usize,
    ) -> Result<Ready> {
        Ok(if threads <= 1 {
            Ready::Seq(TimedSimulator::new(graph, mapping, config)?)
        } else {
            Ready::Par(ParallelTimedSimulator::new(
                graph, mapping, config, threads,
            )?)
        })
    }
}

/// A fleet host with every spec enqueued.
pub fn fleet(specs: Vec<TenantSpec>, workers: usize) -> FleetHost {
    let mut host = FleetHost::new(
        FleetConfig::new()
            .with_round_budget(ROUND_BUDGET)
            .with_workers(workers),
    );
    for spec in specs {
        host.enqueue(spec);
    }
    host
}

/// A workload ready to run.
pub enum Ready {
    /// Sequential engine.
    Seq(TimedSimulator),
    /// Parallel engine.
    Par(ParallelTimedSimulator),
    /// Fleet host.
    Serve(FleetHost),
}

impl Ready {
    /// The run step: drive the workload to completion.
    pub fn run(self) -> Result<Ran> {
        Ok(match self {
            Ready::Seq(sim) => sim.run()?.into(),
            Ready::Par(sim) => {
                let (report, _, stats) = sim.run_with_stats()?;
                Ran::Sim {
                    report,
                    stats: Some(stats),
                }
            }
            Ready::Serve(mut host) => Ran::Serve(host.run()?),
        })
    }
}

/// What a run step produced.
#[allow(clippy::large_enum_variant)] // one value per operation
pub enum Ran {
    /// A simulator report, with schedule stats from the parallel engine.
    Sim {
        /// The report.
        report: SimReport,
        /// Parallel schedule stats (`None` from the sequential engine).
        stats: Option<ParallelRunStats>,
    },
    /// The fleet report.
    Serve(FleetReport),
}

impl Ran {
    /// Kernel firings summed over every node (and every tenant).
    pub fn firings(&self) -> u64 {
        match self {
            Ran::Sim { report, .. } => report.node_firings.iter().sum(),
            Ran::Serve(fleet) => fleet
                .tenants
                .iter()
                .map(|t| t.report.node_firings.iter().sum::<u64>())
                .sum(),
        }
    }
}

impl From<SimReport> for Ran {
    /// A report without schedule stats.
    fn from(report: SimReport) -> Self {
        Ran::Sim {
            report,
            stats: None,
        }
    }
}

/// The expected outputs of a workload, computed outside any timed region.
#[derive(Clone, Debug, PartialEq)]
pub enum Oracle {
    /// A simulator workload's expected report.
    Sim {
        /// Fingerprint of the sequential engine's report on the
        /// interpreted backend.
        fingerprint: u64,
        /// Exact kernel firing count of that report.
        firings: u64,
    },
    /// Per-tenant `(report fingerprint, tape digest)` of uninterrupted solo
    /// runs, in offer order.
    Serve {
        /// One entry per tenant.
        solo: Vec<(u64, Option<u64>)>,
    },
}

impl Oracle {
    /// Compute the oracle: simulator workloads run the sequential engine on
    /// the interpreted backend, the reference the compiled backend and the
    /// parallel engine must match bit for bit; the fleet runs every tenant
    /// solo with `bp_serve::solo`.
    pub fn compute(case: &Case) -> Result<Self> {
        match case {
            Case::Sim(c) => {
                let compiled = compile(&c.graph, &c.opts)?;
                let config = c.config.clone().with_backend(Backend::Interpreted);
                let report =
                    TimedSimulator::new(&compiled.graph, &compiled.mapping, config)?.run()?;
                Ok(Oracle::Sim {
                    fingerprint: report.fingerprint(),
                    firings: report.node_firings.iter().sum(),
                })
            }
            Case::Serve(plan) => Self::solo(&generate(plan)?),
        }
    }

    /// The fleet oracle of `specs`: each one run uninterrupted with
    /// `bp_serve::solo`.
    pub fn solo(specs: &[TenantSpec]) -> Result<Self> {
        let solo = specs
            .iter()
            .map(|s| {
                let (report, tape) = bp_serve::solo(s)?;
                Ok((report.fingerprint(), tape.map(|t| t.digest())))
            })
            .collect::<Result<_>>()?;
        Ok(Oracle::Serve { solo })
    }

    /// Check one run's outputs. Simulator runs must meet the real-time
    /// verdict at [`RATE_HZ`] with the exact firing count and fingerprint;
    /// fleet runs must match every tenant's solo fingerprint and tape digest
    /// with a conserving admission log.
    pub fn check(&self, ran: &Ran) -> std::result::Result<(), String> {
        match (self, ran) {
            (Oracle::Sim { .. }, Ran::Sim { report, .. }) => self.check_report(report),
            (Oracle::Serve { .. }, Ran::Serve(fleet)) => self.check_fleet(fleet, true),
            _ => Err("run and oracle are of different workloads".into()),
        }
    }

    /// [`check`](Self::check) for one simulator report.
    pub fn check_report(&self, report: &SimReport) -> std::result::Result<(), String> {
        let Oracle::Sim {
            fingerprint,
            firings,
        } = self
        else {
            return Err("simulator report checked against a fleet oracle".into());
        };
        let v = &report.verdict;
        if !v.met || v.required_rate_hz != RATE_HZ {
            return Err(format!(
                "real-time verdict not met at {RATE_HZ} Hz: met={} required={} Hz \
                 achieved={} Hz violations={}",
                v.met, v.required_rate_hz, v.achieved_rate_hz, v.violations
            ));
        }
        let got: u64 = report.node_firings.iter().sum();
        if got != *firings {
            return Err(format!("firing count {got}, oracle {firings}"));
        }
        if report.fingerprint() != *fingerprint {
            return Err(format!(
                "report fingerprint {:#018x}, oracle {fingerprint:#018x}",
                report.fingerprint()
            ));
        }
        Ok(())
    }

    /// [`check`](Self::check) for a fleet report; tape digests are compared
    /// only when `tapes` is set (a fleet run without metrics has none).
    pub fn check_fleet(&self, fleet: &FleetReport, tapes: bool) -> std::result::Result<(), String> {
        let Oracle::Serve { solo } = self else {
            return Err("fleet report checked against a simulator oracle".into());
        };
        if !fleet.admission.conserves() {
            return Err("admission log does not conserve offers".into());
        }
        if fleet.tenants.len() != solo.len() {
            return Err(format!(
                "{} tenants finished, {} offered",
                fleet.tenants.len(),
                solo.len()
            ));
        }
        for (t, (fp, digest)) in fleet.tenants.iter().zip(solo) {
            if t.report.fingerprint() != *fp {
                return Err(format!("tenant {} fingerprint differs from solo", t.name));
            }
            if tapes && t.tape.as_ref().map(|x| x.digest()) != *digest {
                return Err(format!("tenant {} tape digest differs from solo", t.name));
            }
        }
        Ok(())
    }
}
