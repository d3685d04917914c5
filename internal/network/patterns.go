package network

import (
	"fmt"
	"math/rand"

	"frontiersim/internal/fabric"
)

// Pattern generates traffic demands over a set of compute nodes.
type Pattern func(f *fabric.Fabric, nodes []int, rng *rand.Rand) ([]*Demand, error)

// buildDemand routes one NIC-to-NIC pair adaptively.
func buildDemand(f *fabric.Fabric, srcNode, dstNode, nic, valiant int, rng *rand.Rand) (*Demand, error) {
	src := f.NodeEndpoint(srcNode, nic)
	dst := f.NodeEndpoint(dstNode, nic)
	ps, err := f.AdaptivePaths(src, dst, valiant, rng)
	if err != nil {
		return nil, err
	}
	return &Demand{Src: src, Dst: dst, Paths: ps.Paths}, nil
}

// Shift returns the permutation node i → node (i+s): mpiGraph's
// measurement structure, and with group-aligned s the adversarial
// pattern minimal routing hates.
func Shift(s, nicsPerNode, valiant int) Pattern {
	return func(f *fabric.Fabric, nodes []int, rng *rand.Rand) ([]*Demand, error) {
		if len(nodes) < 2 {
			return nil, fmt.Errorf("network: shift needs >= 2 nodes")
		}
		var out []*Demand
		for i := range nodes {
			j := (i + s) % len(nodes)
			if i == j {
				continue
			}
			for k := 0; k < nicsPerNode; k++ {
				d, err := buildDemand(f, nodes[i], nodes[j], k, valiant, rng)
				if err != nil {
					return nil, err
				}
				out = append(out, d)
			}
		}
		return out, nil
	}
}
