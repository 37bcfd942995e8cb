package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// machineBlock describes the host the steadiness report ran on: CPU
// model, logical cores, GOMAXPROCS, Go version and cpu0's caches as
// /sys lists them. Figures from another machine are not comparable.
func machineBlock() string {
	model := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	var caches []string
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		read := func(name string) string {
			b, _ := os.ReadFile(filepath.Join(d, name))
			return strings.TrimSpace(string(b))
		}
		caches = append(caches, fmt.Sprintf("L%s %s %s (cpus %s)", read("level"), read("type"), read("size"), read("shared_cpu_list")))
	}
	return fmt.Sprintf("cpu: %s\nlogical cores: %d, GOMAXPROCS: %d, %s\ncaches: %s\n",
		model, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), strings.Join(caches, "; "))
}
