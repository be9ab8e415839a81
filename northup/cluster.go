package northup

import "repro/internal/cluster"

// Distributed-systems prototype (the paper's §VII future work): several
// simulated Northup machines on one virtual clock, connected by a network
// fabric with scatter/broadcast/gather collectives.
type (
	// Cluster holds the machines and fabric.
	Cluster = cluster.Cluster
	// ClusterMachine is one node: a tree plus its runtime.
	ClusterMachine = cluster.Machine
	// FabricSpec parameterizes the interconnect.
	FabricSpec = cluster.FabricSpec
	// ClusterGEMMConfig parameterizes a distributed multiply.
	ClusterGEMMConfig = cluster.GEMMConfig
	// ClusterGEMMResult reports a distributed multiply's phases.
	ClusterGEMMResult = cluster.GEMMResult
)

var (
	// NewCluster builds a cluster of machines on a shared engine.
	NewCluster = cluster.New
	// DefaultFabric returns the InfiniBand-class interconnect (slower than
	// the NVM profile, per §VI's bandwidth observation).
	DefaultFabric = cluster.DefaultFabric
	// DistributedGEMM runs the 1-D row decomposition across the cluster:
	// each machine runs GEMMNorthup's schedule on its strip of C.
	DistributedGEMM = cluster.DistributedGEMM
)
