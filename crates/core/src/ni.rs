//! A complete network interface: the NI kernel plus the per-port shell
//! stacks selected at design (instantiation) time.
//!
//! §1 of the paper: *"the number of ports and their type (i.e.,
//! configuration port, master port, or slave port), the number of
//! connections at each port, memory allocated for the queues, the level of
//! services per port, and the interface to the IP modules are all
//! configurable at design (instantiation) time."* [`NiSpec`] is that
//! description; `aethereal-cfg` builds it from the NoC-level spec (the XML
//! stand-in).

use crate::kernel::{ChannelId, NiKernel, NiKernelSpec};
use crate::message::Ordering;
use crate::shell::{ConfigStack, ConnSelect, MasterStack, SlaveStack};
use noc_sim::engine::{ClockDomain, ClockedWith};
use noc_sim::NiLink;

/// The shell stack attached to one NI port, selected at design time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PortStackSpec {
    /// No shell: the IP streams raw message words through the kernel
    /// channel API (point-to-point connections, e.g. video pixel pipelines).
    Raw,
    /// A master port: master shell plus connection shell.
    Master {
        /// Connection type (direct / narrowcast / multicast).
        conn: ConnSelect,
        /// Message ordering mode.
        ordering: Ordering,
    },
    /// A slave port: slave shell, with multi-connection behaviour when the
    /// port has more than one channel.
    Slave {
        /// Message ordering mode.
        ordering: Ordering,
    },
    /// The configuration master port (config shell).
    Config,
    /// The CNIP slave endpoint, serviced inside the kernel; the port's
    /// first channel must be the kernel's `cnip_channel`.
    Cnip,
}

/// Design-time description of a full NI.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NiSpec {
    /// Kernel geometry.
    pub kernel: NiKernelSpec,
    /// One stack per kernel port, in port order.
    pub stacks: Vec<PortStackSpec>,
}

impl NiSpec {
    /// Total channels (delegates to the kernel spec).
    pub fn total_channels(&self) -> usize {
        self.kernel.total_channels()
    }
}

#[derive(Debug, Clone)]
enum PortStack {
    Raw,
    Master(MasterStack),
    Slave(SlaveStack),
    Config(ConfigStack),
    Cnip,
}

/// A complete NI: kernel + shells.
#[derive(Debug, Clone)]
pub struct Ni {
    /// The NI kernel. Public so raw ports and test benches can use the
    /// channel-level API directly.
    pub kernel: NiKernel,
    stacks: Vec<PortStack>,
    /// Per-port clock domains (each port "can have a different clock
    /// frequency", §4.1).
    clocks: Vec<ClockDomain>,
}

impl Ni {
    /// Instantiates the NI.
    ///
    /// # Panics
    ///
    /// Panics if the stack list does not match the kernel's ports, a
    /// narrowcast map does not match its port's channel count, or a CNIP
    /// stack is not aligned with the kernel's `cnip_channel`.
    pub fn new(spec: NiSpec) -> Self {
        let kernel = NiKernel::new(spec.kernel);
        assert_eq!(
            spec.stacks.len(),
            kernel.spec().ports.len(),
            "one stack per kernel port required"
        );
        let stacks = spec
            .stacks
            .into_iter()
            .enumerate()
            .map(|(p, s)| {
                let channels: Vec<ChannelId> = kernel.port_channels(p).collect();
                let div = kernel.port_clock_div(p);
                match s {
                    PortStackSpec::Raw => PortStack::Raw,
                    PortStackSpec::Master { conn, ordering } => {
                        PortStack::Master(MasterStack::new(channels, conn, ordering, div))
                    }
                    PortStackSpec::Slave { ordering } => {
                        PortStack::Slave(SlaveStack::new(channels, ordering, div))
                    }
                    PortStackSpec::Config => {
                        PortStack::Config(ConfigStack::new(kernel.spec().ni_id, channels))
                    }
                    PortStackSpec::Cnip => {
                        assert_eq!(
                            kernel.spec().cnip_channel,
                            Some(channels[0]),
                            "CNIP port must own the kernel's cnip_channel"
                        );
                        PortStack::Cnip
                    }
                }
            })
            .collect();
        let clocks = (0..kernel.spec().ports.len())
            .map(|p| ClockDomain::new(kernel.port_clock_div(p)))
            .collect();
        Ni {
            kernel,
            stacks,
            clocks,
        }
    }

    /// NI identifier.
    pub fn id(&self) -> usize {
        self.kernel.spec().ni_id
    }

    /// Number of ports.
    pub fn port_count(&self) -> usize {
        self.stacks.len()
    }

    /// The master stack of `port`.
    ///
    /// # Panics
    ///
    /// Panics if the port is not a master port.
    pub fn master_mut(&mut self, port: usize) -> &mut MasterStack {
        match &mut self.stacks[port] {
            PortStack::Master(m) => m,
            other => panic!("port {port} is not a master port: {other:?}"),
        }
    }

    /// The slave stack of `port`.
    ///
    /// # Panics
    ///
    /// Panics if the port is not a slave port.
    pub fn slave_mut(&mut self, port: usize) -> &mut SlaveStack {
        match &mut self.stacks[port] {
            PortStack::Slave(s) => s,
            other => panic!("port {port} is not a slave port: {other:?}"),
        }
    }

    /// The configuration stack of `port`.
    ///
    /// # Panics
    ///
    /// Panics if the port is not a config port.
    pub fn config_mut(&mut self, port: usize) -> &mut ConfigStack {
        match &mut self.stacks[port] {
            PortStack::Config(c) => c,
            other => panic!("port {port} is not a config port: {other:?}"),
        }
    }

    /// The master stack of `port` together with the kernel, split-borrowed
    /// (needed by adapters such as
    /// [`AxiMasterAdapter`](crate::shell::AxiMasterAdapter) whose tick
    /// drives both).
    ///
    /// # Panics
    ///
    /// Panics if the port is not a master port.
    pub fn master_and_kernel_mut(&mut self, port: usize) -> (&mut MasterStack, &mut NiKernel) {
        match &mut self.stacks[port] {
            PortStack::Master(m) => (m, &mut self.kernel),
            other => panic!("port {port} is not a master port: {other:?}"),
        }
    }

    /// Whether `port` carries a master stack.
    pub fn is_master(&self, port: usize) -> bool {
        matches!(self.stacks[port], PortStack::Master(_))
    }

    /// Whether `port` carries a slave stack.
    pub fn is_slave(&self, port: usize) -> bool {
        matches!(self.stacks[port], PortStack::Slave(_))
    }

    /// Whether every shell stack is idle (the kernel is accounted for
    /// separately by [`ClockedWith::quiescent`]).
    fn stacks_idle(&self) -> bool {
        self.stacks.iter().all(|s| match s {
            PortStack::Raw | PortStack::Cnip => true,
            PortStack::Master(m) => m.is_idle(),
            PortStack::Slave(s) => s.is_idle(),
            PortStack::Config(c) => c.is_idle(),
        })
    }

    /// Whether this NI is eligible for analytical fast-forward: all shell
    /// stacks idle (an in-flight transaction couples message progress to
    /// shell state the extrapolation does not model) and the kernel's
    /// dynamic state limited to threshold-free GT streams
    /// ([`NiKernel::ff_ready`]).
    pub fn ff_ready(&self) -> bool {
        self.stacks_idle() && self.kernel.ff_ready()
    }

    /// Walks the NI's wire-visible state through a fast-forward visitor.
    /// Shell stacks are not walked: [`Ni::ff_ready`] certifies them idle,
    /// and idle stacks hold no state that a pure-GT period can change.
    pub fn ff_visit(&mut self, v: &mut dyn noc_sim::FfVisit) {
        self.kernel.ff_visit(v);
    }

    /// Walks the NI's complete dynamic state through a persistence
    /// visitor (see [`noc_sim::persist`]): the kernel, then every shell
    /// stack in port order. Unlike [`Ni::ff_visit`] the shells ARE
    /// walked — a snapshot may land mid-transaction, where shell state
    /// (partial messages, histories, serialization progress) is live.
    /// Raw and CNIP ports hold no shell state; the per-port
    /// [`ClockDomain`]s are pure dividers with no phase counter.
    pub fn persist(&mut self, p: &mut dyn noc_sim::PersistVisit) {
        self.kernel.persist(p);
        for s in &mut self.stacks {
            match s {
                PortStack::Raw | PortStack::Cnip => {}
                PortStack::Master(m) => m.persist(p),
                PortStack::Slave(sl) => sl.persist(p),
                PortStack::Config(c) => c.persist(p),
            }
        }
    }
}

impl noc_sim::Persist for Ni {
    fn persist(&mut self, p: &mut dyn noc_sim::PersistVisit) {
        Ni::persist(self, p);
    }
}

/// A whole NI on the engine contract. One `tick` (absorb, then emit) is one
/// network cycle: shells run on their port clocks and the kernel drains the
/// link inbox in the absorb phase, then the kernel packetizes and stages
/// this cycle's word in the emit phase — the exact serialization of the
/// seed's hand-rolled loop.
impl ClockedWith<NiLink> for Ni {
    fn absorb(&mut self, link: &mut NiLink, cycle: u64) {
        for (stack, clock) in self.stacks.iter_mut().zip(&self.clocks) {
            match stack {
                PortStack::Master(m) if clock.ticks_at(cycle) => m.tick(&mut self.kernel, cycle),
                PortStack::Slave(s) if clock.ticks_at(cycle) => s.tick(&mut self.kernel, cycle),
                PortStack::Config(c) if clock.ticks_at(cycle) => c.tick(&mut self.kernel, cycle),
                // Raw and CNIP ports carry no shell, so their clock is
                // never consulted; shells tick only on their port's edges.
                _ => {}
            }
        }
        self.kernel.absorb(link, cycle);
    }

    fn emit(&mut self, link: &mut NiLink, cycle: u64) {
        self.kernel.emit(link, cycle);
    }

    fn quiescent(&self) -> bool {
        ClockedWith::<NiLink>::quiescent(&self.kernel) && self.stacks_idle()
    }

    fn skip(&mut self, from_cycle: u64, cycles: u64) {
        ClockedWith::<NiLink>::skip(&mut self.kernel, from_cycle, cycles);
    }

    /// Per-NI activity horizon: shells are request-driven (no spontaneous
    /// events), so the NI's horizon is its kernel's.
    fn next_event(&self, now: u64) -> u64 {
        ClockedWith::<NiLink>::next_event(&self.kernel, now)
    }

    /// Shells hold no time-driven state, so the NI is dormant exactly when
    /// its stacks are idle and its kernel reports dormancy (strict
    /// quiescence, or queued GT data waiting for its next reserved slot).
    fn dormant_until(&self, now: u64) -> u64 {
        if !self.stacks_idle() {
            return now;
        }
        ClockedWith::<NiLink>::dormant_until(&self.kernel, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_ni() -> Ni {
        // Reference kernel: ports 0 (config duties are split: port 0 is the
        // CNIP endpoint), 1 master, 2 narrowcast master, 3 slave.
        let spec = NiSpec {
            kernel: NiKernelSpec::reference(0),
            stacks: vec![
                PortStackSpec::Cnip,
                PortStackSpec::Master {
                    conn: ConnSelect::Direct,
                    ordering: Ordering::InOrder,
                },
                PortStackSpec::Master {
                    conn: ConnSelect::Narrowcast(vec![
                        crate::shell::AddrRange {
                            base: 0,
                            size: 0x100,
                        },
                        crate::shell::AddrRange {
                            base: 0x100,
                            size: 0x100,
                        },
                    ]),
                    ordering: Ordering::InOrder,
                },
                PortStackSpec::Slave {
                    ordering: Ordering::InOrder,
                },
            ],
        };
        Ni::new(spec)
    }

    #[test]
    fn builds_reference_instance() {
        let mut ni = reference_ni();
        assert_eq!(ni.port_count(), 4);
        assert!(ni.is_master(1));
        assert!(ni.is_slave(3));
        assert_eq!(ni.master_mut(1).channels(), &[1]);
        assert_eq!(ni.master_mut(2).channels(), &[2, 3]);
        assert_eq!(ni.slave_mut(3).channels(), &[4, 5, 6, 7]);
    }

    #[test]
    #[should_panic(expected = "not a slave port")]
    fn wrong_port_kind_panics() {
        let mut ni = reference_ni();
        let _ = ni.slave_mut(1);
    }

    #[test]
    #[should_panic(expected = "one stack per kernel port")]
    fn stack_count_mismatch_panics() {
        let _ = Ni::new(NiSpec {
            kernel: NiKernelSpec::reference(0),
            stacks: vec![PortStackSpec::Raw],
        });
    }

    #[test]
    #[should_panic(expected = "cnip_channel")]
    fn cnip_port_must_match_kernel() {
        let mut kernel = NiKernelSpec::reference(0);
        kernel.cnip_channel = Some(1);
        let _ = Ni::new(NiSpec {
            kernel,
            stacks: vec![
                PortStackSpec::Cnip, // port 0 owns channel 0, not 1
                PortStackSpec::Raw,
                PortStackSpec::Raw,
                PortStackSpec::Raw,
            ],
        });
    }
}
