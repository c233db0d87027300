package obs

import (
	"runtime"
	"runtime/debug"
	"sync"
)

// Stamp identifies the binary behind a health or metrics response:
// module version, go toolchain, and the GOMAXPROCS it runs with.
type Stamp struct {
	Module     string `json:"module"`
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

var (
	stampOnce sync.Once
	stamp     Stamp
)

// Version returns the process's build stamp. The module version comes
// from the build info when the binary was built from a tagged module
// ("(devel)" or empty under plain `go build`/`go test` — normalized to
// "devel" so the field is never blank).
func Version() Stamp {
	stampOnce.Do(func() {
		stamp = Stamp{Module: "devel", Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
		if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" && bi.Main.Version != "(devel)" {
			stamp.Module = bi.Main.Version
		}
	})
	return stamp
}
