//go:build amd64

package matrix

import "strings"

// CPU-feature detection for the micro-kernel dispatcher, implemented
// directly over CPUID/XGETBV (cpu_amd64.s) so the repository keeps its
// no-dependency rule. The raw instruction wrappers cpuidex and xgetbv0
// are assembly-backed and, per the asmsafe rule, referenced only from
// this file; everything else consumes the cached cpuInfo.

//go:noescape
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv0() (eax, edx uint32)

type cpuInfo struct {
	model    string
	features []string
	avx2fma  bool
	avx512   bool
}

// detectCPU interrogates CPUID once at package init. Feature names
// follow /proc/cpuinfo spelling so BENCH_kernels.json headers read
// naturally next to kernel logs.
func detectCPU() cpuInfo {
	var info cpuInfo
	maxLeaf, _, _, _ := cpuidex(0, 0)
	_, _, ecx1, edx1 := cpuidex(1, 0)
	const (
		bitSSE2    = 1 << 26 // leaf 1 EDX
		bitFMA     = 1 << 12 // leaf 1 ECX
		bitOSXSAVE = 1 << 27 // leaf 1 ECX
		bitAVX     = 1 << 28 // leaf 1 ECX
		bitAVX2    = 1 << 5  // leaf 7 EBX
		bitAVX512F = 1 << 16 // leaf 7 EBX
	)
	have := func(name string, ok bool) bool {
		if ok {
			info.features = append(info.features, name)
		}
		return ok
	}
	have("sse2", edx1&bitSSE2 != 0)
	fma := have("fma", ecx1&bitFMA != 0)
	avx := have("avx", ecx1&bitAVX != 0)
	avx2, avx512f := false, false
	if maxLeaf >= 7 {
		_, ebx7, _, _ := cpuidex(7, 0)
		avx2 = have("avx2", ebx7&bitAVX2 != 0)
		avx512f = ebx7&bitAVX512F != 0
	}
	// The OS must have enabled XMM+YMM state saving (XCR0 bits 1 and 2)
	// for AVX register state to survive context switches, and opmask +
	// full ZMM state saving (bits 5, 6 and 7) for AVX-512 state.
	ymmOS, zmmOS := false, false
	if ecx1&bitOSXSAVE != 0 {
		xa, _ := xgetbv0()
		ymmOS = xa&0x6 == 0x6
		zmmOS = xa&0xE6 == 0xE6
		have("osxsave", true)
	}
	info.avx2fma = avx && avx2 && fma && ymmOS
	// avx512f is listed only when usable: the ISA bit alone says nothing
	// about whether the OS saves ZMM state.
	info.avx512 = have("avx512f", info.avx2fma && avx512f && zmmOS)
	info.model = cpuBrand()
	return info
}

// cpuBrand returns the processor brand string (CPUID leaves
// 0x80000002..4), or the vendor id when the extended leaves are
// unsupported.
func cpuBrand() string {
	maxExt, _, _, _ := cpuidex(0x80000000, 0)
	if maxExt < 0x80000004 {
		var v [12]byte
		_, b, c, d := cpuidex(0, 0)
		putU32LE(v[0:], b)
		putU32LE(v[4:], d)
		putU32LE(v[8:], c)
		return strings.TrimRight(string(v[:]), "\x00")
	}
	var brand [48]byte
	for i := uint32(0); i < 3; i++ {
		a, b, c, d := cpuidex(0x80000002+i, 0)
		putU32LE(brand[i*16:], a)
		putU32LE(brand[i*16+4:], b)
		putU32LE(brand[i*16+8:], c)
		putU32LE(brand[i*16+12:], d)
	}
	return strings.TrimSpace(strings.TrimRight(string(brand[:]), "\x00"))
}

func putU32LE(dst []byte, v uint32) {
	dst[0] = byte(v)
	dst[1] = byte(v >> 8)
	dst[2] = byte(v >> 16)
	dst[3] = byte(v >> 24)
}

var hostCPU = detectCPU()

// CPUModel reports the host processor's brand string, recorded in the
// BENCH_kernels.json header so trajectories across hosts are
// interpretable.
func CPUModel() string { return hostCPU.model }

// CPUFeatures reports the detected ISA features relevant to the kernel
// dispatcher, in /proc/cpuinfo spelling.
func CPUFeatures() []string { return append([]string(nil), hostCPU.features...) }

// cpuHasAVX2FMA reports whether the AVX2+FMA assembly micro-kernel can
// run on this host (ISA present and YMM state OS-enabled).
func cpuHasAVX2FMA() bool { return hostCPU.avx2fma }

// cpuHasAVX512 reports whether the AVX-512F assembly micro-kernel can
// run on this host (ISA present and opmask + ZMM state OS-enabled). It
// implies cpuHasAVX2FMA.
func cpuHasAVX512() bool { return hostCPU.avx512 }
