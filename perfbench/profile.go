package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"strings"
	"time"
)

// layers are the dbench/internal packages reported by host self time,
// with faults and sqladmin folded into one layer. Other dbench packages
// report as "other"; samples with no dbench frame as "sched" or "gc".
var layers = []string{
	"sim", "sched", "gc", "txn", "tpcc", "bufcache", "storage", "catalog",
	"redo", "engine", "simdisk", "recovery", "backup", "archivelog",
	"standby", "faults", "other",
}

const internalPrefix = "dbench/internal/"

// gcFrames mark samples of the runtime's background collector.
var gcFrames = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// layerOf attributes one sampled stack (innermost frame first) to the
// layer of its innermost dbench/internal frame.
func layerOf(stack []string) string {
	for _, fn := range stack {
		pkg, ok := strings.CutPrefix(fn, internalPrefix)
		if !ok {
			continue
		}
		pkg = pkg[:strings.IndexAny(pkg+".", "./")]
		switch {
		case pkg == "sqladmin":
			return "faults"
		case slices.Contains(layers, pkg):
			return pkg
		}
		return "other"
	}
	for _, fn := range stack {
		if slices.Contains(gcFrames, fn) {
			return "gc"
		}
	}
	return "sched"
}

// profiler collects one CPU profile per traced measured phase.
type profiler struct {
	dir, prefix string
	files       []string
	cur         *os.File
	err         error
}

// bracket starts (start=true) or stops the CPU profile.
func (pr *profiler) bracket(start bool) {
	if pr.err != nil {
		return
	}
	if start {
		name := filepath.Join(pr.dir, fmt.Sprintf("cpu-%s-%d.pprof", pr.prefix, len(pr.files)))
		f, err := os.Create(name)
		if err != nil {
			pr.err = err
			return
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			pr.err = err
			return
		}
		pr.cur = f
		pr.files = append(pr.files, name)
		return
	}
	pprof.StopCPUProfile()
	pr.err = pr.cur.Close()
}

// selfTimes merges the collected profiles with `go tool pprof -traces`
// and sums each layer's sampled host time, in seconds.
func (pr *profiler) selfTimes() (map[string]float64, error) {
	if pr.err != nil {
		return nil, pr.err
	}
	cmd := exec.Command("go", append([]string{"tool", "pprof", "-traces"}, pr.files...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	return parseTraces(out)
}

// parseTraces reads `pprof -traces` output: blocks separated by dashed
// lines, each opening with the sample's value and innermost frame,
// followed by one caller per line.
func parseTraces(out []byte) (map[string]float64, error) {
	self := map[string]float64{}
	for _, l := range layers {
		self[l] = 0
	}
	var value time.Duration
	var stack []string
	flush := func() {
		if len(stack) > 0 {
			self[layerOf(stack)] += value.Seconds()
		}
		stack = stack[:0]
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inBody := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBody = true
			continue
		}
		if !inBody {
			continue
		}
		fields := strings.Fields(line)
		switch {
		case len(fields) == 0 || strings.HasSuffix(fields[0], ":"):
			// blank line or a label line
		case len(stack) == 0 && len(fields) >= 2:
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof -traces: bad sample value in %q", line)
			}
			value = d
			stack = append(stack, fields[1])
		default:
			stack = append(stack, fields[0])
		}
	}
	flush()
	return self, sc.Err()
}
