//! Crash-point exploration **through the serving path**: the
//! durable-ack oracle.
//!
//! The in-process scenarios (`crashpoint::{single, sharded, ..}`) prove
//! the indexes recover from a cut at any persistence boundary. This
//! [`Scenario`] proves the *protocol* claim layered on top: a client that received
//! an ack over TCP holds a durable write, no matter where the power cut
//! lands — inside an index operation, inside the group-durability
//! batch fence, or between batches.
//!
//! Each explored point stands up a real [`Server`] on loopback over a
//! fresh sharded environment (small-node inner indexes, the same
//! configuration as the in-process sweeps); the sweep driver arms one
//! shard's pool, and the deterministic `crashpoint` workload is
//! replayed over a single pipelined connection. When the boundary trips, the server halts exactly like a
//! power cut (buffered acks are dropped, sockets close); the client is
//! left holding two facts:
//!
//! * the **acked set** — responses it actually received, folded into an
//!   oracle model in ack order, and
//! * the **unacked suffix** — requests sent but never answered, in send
//!   order.
//!
//! Because a single connection's requests execute FIFO on the server,
//! the post-recovery state must equal: *acked model* + *some prefix of
//! the unacked suffix fully applied* + *at most one further op torn
//! atomically* ([`InflightAllowance`]) + *nothing after it*. The
//! verifier tries every prefix length `j`; if none reconciles, the
//! boundary is reported as a durable-ack violation ("acked-but-lost" or
//! "torn in-flight").

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crashpoint::sharded::spread_workload;
use crashpoint::{
    ack_mismatch, fresh_shards, try_recover_shard, verify_recovered, Acked, Counters,
    InflightAllowance, Scenario, SweepOptions,
};
use engine::ShardedIndex;
use index_api::{Op, RangeIndex};
use pmem::{MediaError, PmConfig, PmPool};

use crate::client::ClientConn;
use crate::server::{Server, ServerConfig};
use crate::wire::{ReqOp, Request, Response};

/// A sharded engine behind one live TCP server, one shard armed at a
/// time. Counts `acked_total` (acks received over all runs, the probe
/// included) and `max_unacked` (deepest unacked suffix at a cut).
#[derive(Debug, Clone, Copy)]
pub struct Net {
    /// Shards behind the server (each on its own pool).
    pub shards: usize,
    /// Client pipelining window (how deep the unacked suffix can get).
    pub window: usize,
    /// DRAM hot-key cache in front of the served index, in MiB (0 = off).
    /// Recovery and verification always read the raw PM pools, so a
    /// green sweep with the cache on proves the tier never serves an
    /// acked write that is not durable underneath it.
    pub cache_mb: usize,
}

impl Default for Net {
    fn default() -> Self {
        Net {
            shards: 2,
            window: 32,
            cache_mb: 0,
        }
    }
}

/// A listening server, the index it fronts (kept alive past the
/// server's exit so no destructor runs before the cut images are
/// taken) and that index's pools.
pub struct NetEnv {
    server: Option<Server>,
    _served: Arc<dyn RangeIndex>,
    pools: Vec<Arc<PmPool>>,
}

impl Net {
    /// Pipeline `ops` over one connection until all are answered or the
    /// server closes, applying each acked op to `acked.model` in ack
    /// (== send) order — a response that is not the one the oracle
    /// predicts (out of order, a failure status, a wrong verdict) is a
    /// violation — and leaving the sent-but-unanswered suffix in
    /// `acked.unacked`. Returns the number of acks received.
    fn pump_workload(&self, addr: &str, ops: &[Op], acked: &mut Acked) -> std::io::Result<u64> {
        let mut acks = 0;
        let mut conn = ClientConn::connect(addr)?;
        // Requests in send order; acks must arrive FIFO on one conn.
        let mut sent: VecDeque<(Request, Op)> = VecDeque::new();
        let mut on_resp = |resp: Response, sent: &mut VecDeque<(Request, Op)>| {
            let Some((req, op)) = sent.pop_front() else {
                return acked
                    .errors
                    .push(format!("unsolicited ack {}", resp.req_id));
            };
            acks += 1;
            let want = Response::of(req.req_id, req.op.opcode(), acked.model.apply(op));
            acked.errors.extend(ack_mismatch(op, &resp, &want));
        };

        let deadline = Instant::now() + Duration::from_secs(20);
        let mut next = 0usize;
        while (next < ops.len() || !sent.is_empty()) && !conn.server_closed {
            if Instant::now() > deadline {
                return Err(std::io::Error::other("run timed out"));
            }
            let mut progressed = false;
            while next < ops.len() && sent.len() < self.window {
                let req = ReqOp::try_from(ops[next]).map_err(std::io::Error::other)?;
                let req_id = conn.send(req);
                sent.push_back((Request { req_id, op: req }, ops[next]));
                next += 1;
                progressed = true;
            }
            for r in conn.pump()? {
                on_resp(r, &mut sent);
                progressed = true;
            }
            if !progressed {
                std::thread::yield_now();
            }
        }
        // Flush any acks raced with the close.
        if let Ok(resps) = conn.pump() {
            resps.into_iter().for_each(|r| on_resp(r, &mut sent));
        }
        acked.unacked = sent.into_iter().map(|(_, op)| op).collect();
        Ok(acks)
    }
}

impl Scenario for Net {
    type Env = NetEnv;

    fn build(&self, opts: &SweepOptions) -> (NetEnv, Vec<Arc<PmPool>>) {
        let index = ShardedIndex::from_parts(fresh_shards(opts, self.shards, PmConfig::real()));
        let pools = index.pools();
        // Only the serving path goes through the cache — crash images
        // and recovery stay on the raw pools.
        let served: Arc<dyn RangeIndex> = if self.cache_mb > 0 {
            Arc::new(cache::CachedIndex::new(index, self.cache_mb << 20))
        } else {
            index
        };
        let cfg = ServerConfig {
            addr: "127.0.0.1:0".into(),
            // The one connection lands on the first worker; the second
            // never has anything to do and is blocked in `wait` when the
            // cut comes, so every boundary also checks that a halt
            // raised on one worker wakes and stops another.
            workers: 2,
            window: self.window.max(1),
            ..ServerConfig::default()
        };
        let server = Server::start(served.clone(), pools.clone(), cfg).expect("bind loopback");
        let env = NetEnv {
            server: Some(server),
            _served: served,
            pools: pools.clone(),
        };
        (env, pools)
    }

    fn drive(&self, env: &mut NetEnv, opts: &SweepOptions, counters: &mut Counters) -> Acked {
        let server = env.server.take().expect("one run per environment");
        let mut acked = Acked::default();
        let addr = server.local_addr().to_string();
        match self.pump_workload(&addr, &spread_workload(opts), &mut acked) {
            Ok(acks) => *counters.entry("acked_total").or_default() += acks,
            Err(e) => acked.errors.push(format!("client io: {e}")),
        }
        // A run that completed drains gracefully; after a cut the server
        // has halted like the machine it models (buffered acks dropped,
        // sockets closed) and is already on its way out.
        server.handle().drain();
        let halted = server.join().halted;
        let fired = env.pools.iter().any(|p| p.crash_fired());
        if fired != halted {
            acked.errors.push(format!(
                "halt disagreement: pool fired={fired} server halted={halted}"
            ));
        }
        if fired {
            let deepest = counters.entry("max_unacked").or_default();
            *deepest = (*deepest).max(acked.unacked.len() as u64);
        }
        acked
    }

    /// Recover all shards and check the acked model + unacked prefix
    /// oracle.
    fn check(
        &self,
        opts: &SweepOptions,
        pools: &[Arc<PmPool>],
        _armed: usize,
        acked: &Acked,
        _counters: &mut Counters,
    ) -> Result<Result<(), String>, MediaError> {
        let recovered =
            ShardedIndex::recover(pools, false, |pool| try_recover_shard(&opts.kind, pool))?;

        let mut last_err = String::new();
        // FIFO execution: the executed prefix is applied exactly as the
        // oracle applies it. `for_op` applies op `j` to `m`, so round
        // `j + 1` starts from a prefix one op longer (and the recovered
        // state of the cut op's key is judged by its allowance only).
        let mut m = acked.model.clone();
        for j in 0..=acked.unacked.len() {
            let inflight: Vec<InflightAllowance> = acked
                .unacked
                .get(j)
                .map(|&op| InflightAllowance::for_op(op, &mut m).0)
                .into_iter()
                .collect();
            match verify_recovered(&*recovered, &m, &inflight) {
                Ok(()) => return Ok(Ok(())),
                Err(e) => last_err = format!("prefix j={j}: {e}"),
            }
        }
        Ok(Err(format!(
            "no executed-prefix length reconciles the recovered state \
             ({} acked, {} unacked): {last_err}",
            acked.model.len(),
            acked.unacked.len()
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crashpoint::sweep;

    fn strided(kind: &str, stride: u64) -> SweepOptions {
        SweepOptions {
            kind: kind.into(),
            ops: 120,
            key_range: 48,
            seed: 0xC0FFEE,
            pool_mib: 8,
            stride,
            arm_pools: vec![0],
            ..SweepOptions::default()
        }
    }

    #[test]
    fn strided_net_sweep_is_green_for_wbtree() {
        let summary = sweep(&Net::default(), &strided("wbtree", 211));
        assert!(
            summary.is_green(),
            "{:?}",
            &summary.failures[..summary.failures.len().min(3)]
        );
        assert!(summary.crashes_fired > 0, "no boundary tripped");
    }

    #[test]
    fn strided_net_sweep_is_green_with_cache_tier() {
        // Same sweep through the DRAM hot-key tier: acked-implies-durable
        // must hold even though lookups may be served from DRAM, because
        // every mutation is write-through (PM first, ack after).
        let scn = Net {
            cache_mb: 4,
            ..Net::default()
        };
        let summary = sweep(&scn, &strided("fptree", 223));
        assert!(
            summary.is_green(),
            "{:?}",
            &summary.failures[..summary.failures.len().min(3)]
        );
        assert!(summary.crashes_fired > 0, "no boundary tripped");
    }
}
