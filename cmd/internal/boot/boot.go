// Package boot is what the commands share around a booted stack: the
// -faults parse, the black-box wiring of one sink set (degrade and SIGQUIT
// dumps to stderr, the -mon endpoint), and the create → write → close →
// report sequence of their -…-out files. Each command passes its own name
// and note prefix, so every message reads exactly as it did inline.
package boot

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"doppiodb/internal/doppiomon"
	"doppiodb/internal/faults"
)

// Faults parses a -faults spec and announces the injector on stderr; an
// empty spec is no injector.
func Faults(spec, notePrefix string) (*faults.Injector, error) {
	if spec == "" {
		return nil, nil
	}
	in, err := faults.NewFromSpec(spec)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "%sfault injection active: %s\n", notePrefix, spec)
	return in, nil
}

// Observe gives the sink set in cfg its black-box behaviour: when the fault
// layer degrades a query the recorder window lands on stderr, SIGQUIT forces
// the same dump for the life of the process, and a non-empty monAddr serves
// the set over HTTP. The returned server is nil without -mon; its Close is
// nil-safe.
func Observe(prog, notePrefix, monAddr string, cfg doppiomon.Config) (*doppiomon.Server, error) {
	rec := cfg.Recorder
	rec.SetSink(os.Stderr)
	sigq := make(chan os.Signal, 1)
	signal.Notify(sigq, syscall.SIGQUIT)
	go func() {
		for range sigq {
			fmt.Fprintf(os.Stderr, "%s: SIGQUIT: flight-recorder window follows\n", prog)
			rec.WriteText(os.Stderr)
		}
	}()
	if monAddr == "" {
		return nil, nil
	}
	mon, err := doppiomon.Start(monAddr, cfg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "%smonitoring endpoint on http://%s\n", notePrefix, mon.Addr())
	return mon, nil
}

// WriteFile creates path, hands it to write, and closes it, returning the
// first error of the three.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cErr := f.Close(); err == nil {
		err = cErr
	}
	return err
}

// WriteJSON writes v to path as indented JSON.
func WriteJSON(path string, v any) error {
	return WriteFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	})
}
