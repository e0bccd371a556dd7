// Package samnet is a from-scratch reproduction of "Wormhole Attacks
// Detection in Wireless Ad Hoc Networks: A Statistical Analysis Approach"
// (Song, Qian, Li — IPDPS 2005): a deterministic wireless ad hoc network
// simulator, DSR and SMR-style multi-path route discovery, wormhole /
// blackhole / greyhole adversaries, the SAM statistical detector, the
// paper's three-step IDS (detect, probe the suspect pair, isolate), a
// geographic packet-leash baseline, and an experiment harness that
// regenerates every table and figure of the paper's evaluation.
//
// The root package holds only the benchmark suite (bench_test.go); the
// implementation lives under internal/ and the executables under cmd/.
package samnet
