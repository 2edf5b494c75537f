//! # hbp-algos — the paper's HBP algorithm suite
//!
//! Implements every algorithm of Table 1 of Cole & Ramachandran (IPDPS 2012 /
//! arXiv:1103.4071) as an HBP computation recorded through
//! [`hbp_model::Builder`], plus sequential oracles and native fork-join
//! counterparts for wall-clock benchmarking:
//!
//! | module      | algorithms                                                   |
//! |-------------|--------------------------------------------------------------|
//! | [`scan`]    | M-Sum, Matrix Addition (MA), Prefix Sums (PS)                |
//! | [`layout`]  | RM→BI, Direct BI→RM, BI-RM (gap RM), BI-RM for FFT           |
//! | [`mt`]      | Matrix Transposition in bit-interleaved layout               |
//! | [`strassen`]| Strassen's matrix multiplication (BI layout)                 |
//! | [`mm`]      | Depth-n-MM: 8-way recursive MM with local copies (\[13\])      |
//! | [`fft`]     | Six-step FFT                                                 |
//! | [`sort`]    | HBP mergesort (`O(n log² n)` stand-in, kept for A/B)         |
//! | [`spms`]    | SPMS \[12\]: Sample, Partition and Merge Sort (the real thing) |
//! | [`listrank`]| List Ranking with IS contraction and gapping                 |
//! | [`cc`]      | Connected components via hooking + pointer doubling         |
//! | [`par`]     | native fork-join kernels (one workspace per launch)          |
//! | [`gen`]     | workload generators                                          |
//! | [`oracle`]  | sequential reference implementations                         |
//!
//! Every trace-built algorithm is verified against its oracle in unit tests,
//! so each simulated run doubles as a correctness check.

#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]
// Off x86_64 the `par` leaves' AVX2+FMA wrappers are plain fns, so the
// `unsafe` blocks that call them have nothing to allow there.
#![cfg_attr(not(target_arch = "x86_64"), allow(unused_unsafe))]

pub mod cc;
pub mod compose;
pub mod euler;
pub mod fft;
pub mod gen;
pub mod layout;
pub mod listrank;
pub mod mm;
pub mod mt;
pub mod oracle;
pub mod par;
pub mod scan;
pub mod sort;
pub mod spms;
pub mod strassen;
pub mod util;
