package hardware

import "testing"

func TestProfiles(t *testing.T) {
	disk := PostgresXLDisk()
	mem := SystemXMemory()
	if disk.Nodes != 4 || mem.Nodes != 4 {
		t.Fatalf("node counts: %d / %d", disk.Nodes, mem.Nodes)
	}
	if mem.ScanBytesPerSec <= disk.ScanBytesPerSec {
		t.Fatalf("memory scans must be faster than disk")
	}
	// Disk profile charges effective (protocol-bound) shuffle throughput,
	// below the memory engine's wire speed.
	if disk.NetBytesPerSec >= mem.NetBytesPerSec {
		t.Fatalf("disk effective net %v >= memory %v", disk.NetBytesPerSec, mem.NetBytesPerSec)
	}
	if disk.QueryOverheadSec <= 0 || disk.RepartitionOverheadSec <= 0 {
		t.Fatalf("disk overheads must be positive")
	}
}

func TestWithSlowNetwork(t *testing.T) {
	base := SystemXMemory()
	slow := base.WithSlowNetwork()
	if slow.NetBytesPerSec >= base.NetBytesPerSec {
		t.Fatalf("slow network not slower")
	}
	if slow.NetBytesPerSec != 0.6*1e9/8 {
		t.Fatalf("slow network = %v, want 0.6 Gbps", slow.NetBytesPerSec)
	}
	// The base profile is unchanged (value receiver).
	if base.NetBytesPerSec != 10*1e9/8 {
		t.Fatalf("base mutated: %v", base.NetBytesPerSec)
	}
	if slow.Name == base.Name {
		t.Fatalf("slow profile must be distinguishable by name")
	}
}

func TestWithSlowCompute(t *testing.T) {
	base := SystemXMemory()
	slow := base.WithSlowCompute()
	if slow.ScanBytesPerSec != base.ScanBytesPerSec/2 || slow.CPUTuplesPerSec != base.CPUTuplesPerSec/2 {
		t.Fatalf("slow compute = %+v", slow)
	}
	if slow.NetBytesPerSec != base.NetBytesPerSec {
		t.Fatalf("slow compute must not change the network")
	}
}

func TestModifiersCompose(t *testing.T) {
	p := SystemXMemory().WithSlowCompute().WithSlowNetwork()
	if p.NetBytesPerSec != 0.6*1e9/8 || p.ScanBytesPerSec != SystemXMemory().ScanBytesPerSec/2 {
		t.Fatalf("composed profile = %+v", p)
	}
}

func TestByName(t *testing.T) {
	if p, ok := ByName("disk"); !ok || p.Name != PostgresXLDisk().Name {
		t.Fatalf("disk = %+v, %v", p, ok)
	}
	if p, ok := ByName("memory"); !ok || p.Name != SystemXMemory().Name {
		t.Fatalf("memory = %+v, %v", p, ok)
	}
	if _, ok := ByName("tape"); ok {
		t.Fatal("unknown engine name accepted")
	}
}
