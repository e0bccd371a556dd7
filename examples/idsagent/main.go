// IDS-agent example: the full three-step SAM procedure inside a distributed
// intrusion detection system (paper Sec. III.B, Figs. 3-4).
//
//  1. Train a normal-condition profile for the topology.
//
//  2. Several destination nodes run SAM agents; wormhole attackers tunnel
//     route requests and blackhole the data.
//
//  3. Each agent scores its route set and probes the suspect pair with
//     challenge-response probes (step 2); condemned pairs join one shared
//     isolation set (step 3), and a fresh discovery routes around them.
//
// The example exits non-zero if no pair is condemned or if a rediscovered
// route crosses an isolated node.
//
//	go run ./examples/idsagent
package main

import (
	"fmt"
	"os"

	"samnet"
	"samnet/internal/sam"
	"samnet/internal/verify"
)

func main() {
	net := samnet.NewCluster(1, 1)

	// --- Training: 30 normal route discoveries feed the profile. ---
	trainer := samnet.NewTrainer("cluster-1tier/MR")
	for seed := uint64(1); seed <= 30; seed++ {
		src := net.SrcPool[int(seed)%len(net.SrcPool)]
		dst := net.DstPool[int(seed*7)%len(net.DstPool)]
		d := samnet.DiscoverMR(net, src, dst, seed)
		trainer.ObserveRoutes(d.Routes)
	}
	profile, err := trainer.Profile()
	if err != nil {
		panic(err)
	}
	fmt.Printf("trained profile %q over %d runs: pmax %v | phi %v\n\n",
		profile.Label, trainer.Runs(), profile.PMax, profile.Phi)

	// --- Attack: the embedded pair activates its tunnel and blackholes
	// data packets. ---
	sc := samnet.Attack(net, 1, samnet.BehaviorBlackhole)
	tunnel := sc.TunnelLinks()[0]
	fmt.Printf("wormhole active: link %v, payload behaviour %v\n\n", tunnel, sc.Behavior)

	// --- Distributed detection: three destinations each run an agent that
	// detects, probes, and condemns into the shared isolation set. ---
	iso := verify.NewIsolationSet()
	for i, dstNode := range net.DstPool[:3] {
		seed := uint64(100 + i)
		src := net.SrcPool[i*3%len(net.SrcPool)]
		disc := samnet.DiscoverMRUnderAttack(net, sc, src, dstNode, seed)
		v := samnet.NewDetector(profile).Evaluate(samnet.Analyze(disc.Routes))
		fmt.Printf("agent@%d: %d routes, verdict=%v lambda=%.3f", dstNode,
			len(disc.Routes), v.Decision, v.Lambda)
		if v.Decision != sam.Normal {
			pv := samnet.Probe(net, sc, v.SuspectLink, disc.Routes, seed)
			fmt.Printf(" -> probed %v: likelihood %.2f over %d probes, condemned=%v",
				pv.Pair, pv.Likelihood, pv.Probes, pv.Condemned)
			if pv.Condemned {
				iso.Condemn(pv)
			}
		}
		fmt.Println()
	}

	// --- Response: isolate every condemned pair and rediscover. ---
	excluded := map[samnet.NodeID]bool{}
	for _, v := range iso.Pairs() {
		excluded[v.Pair.A] = true
		excluded[v.Pair.B] = true
	}
	fmt.Printf("\nisolated pairs: %d, nodes %v\n", iso.Len(), excluded)
	if iso.Len() == 0 {
		fmt.Fprintln(os.Stderr, "idsagent: no pair condemned")
		os.Exit(1)
	}

	fmt.Println("\nattackers isolated (neighbors refuse their traffic); rediscovering routes:")
	d := samnet.DiscoverMRAvoiding(net, excluded, net.SrcPool[0], net.DstPool[len(net.DstPool)-1], 999)
	for _, r := range d.Routes {
		for _, id := range r {
			if iso.IsolatedNode(id) {
				fmt.Fprintf(os.Stderr, "idsagent: rediscovered route %v crosses isolated node %d\n", r, id)
				os.Exit(1)
			}
		}
	}
	fmt.Printf("  %d routes found, all avoid every isolated node\n", len(d.Routes))
}
