//! A thread-per-core TCP serving layer for the PM range indexes, plus
//! a pibench-compatible remote workload driver.
//!
//! The reproduction's other crates measure indexes through direct
//! function calls; this one puts the missing deployment path in front
//! of them — a compact binary wire protocol ([`wire`]), a serving loop
//! with **group durability**, backpressure and admission control
//! ([`server`]), and a closed/open-loop remote load generator
//! ([`client`]) that emits the same latency-percentile rows as local
//! `pibench` runs.
//!
//! Everything is `std`-only: no async runtime, no protocol library —
//! consistent with the offline, shims-only workspace.
//!
//! Binaries: `pmserve` (serve an index over TCP) and `pmload` (drive a
//! remote server), wired together by the CI network smoke job;
//! experiment E18 drives [`Server`] and [`run_load`] in one process.

#![warn(missing_docs)]

pub mod build;
pub mod client;
pub mod crash;
pub mod server;
mod wait;
pub mod wire;

pub use client::{run_load, send_shutdown, ClientConn, LoadConfig, LoadResult};
pub use server::{DrainReport, ServeStats, Server, ServerConfig, ServerHandle};
pub use wire::{Opcode, ReqOp, Request, Response, Status, WireError};
