package telemetry

import (
	"flag"
	"fmt"
	"io"
	"time"

	"repro/internal/obs"
	"repro/internal/prof"
)

// Flags is the observability flag set every CLI shares: the -metrics and
// -events artifacts, the -cpuprofile/-memprofile profiles and, for tools
// that call RegisterServe, the live -serve endpoint with its -linger.
// Register the flags, call Start after flag parsing and Finish when the
// run is over.
type Flags struct {
	Metrics    string
	Events     string
	CPUProfile string
	MemProfile string
	Serve      string
	Linger     time.Duration

	out      io.Writer
	fr       *obs.FileRecorder
	srv      *Server
	stopProf func() error // nil before Start and after Finish
}

// Register declares -metrics, -events, -cpuprofile and -memprofile on fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Metrics, "metrics", "", "write instrumentation counters as JSONL to this file")
	fs.StringVar(&f.Events, "events", "", "write a Chrome trace_event timeline to this file")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write an allocation profile to this file on exit")
}

// RegisterServe declares -serve and -linger on fs.
func (f *Flags) RegisterServe(fs *flag.FlagSet) {
	fs.StringVar(&f.Serve, "serve", "", "serve live telemetry (/metrics, /healthz, /debug/pprof) on this address for the duration of the run (host:port; :0 picks a port, announced on stderr)")
	fs.DurationVar(&f.Linger, "linger", 0, "with -serve, keep the telemetry server up this long after the run so scrapers catch the final state")
}

// Start opens what the flags ask for and returns the run's recorder (nil
// when no flag is set). With Serve set, a server exposing the recorder's
// registry listens on Serve; its address is announced on out as
// "telemetry: serving on http://HOST:PORT", so scripts can scrape an
// ephemeral :0 port. A -serve run without -metrics or -events records
// into a registry alone. The profiles start last, so they cover the run
// alone.
func (f *Flags) Start(out io.Writer) (*obs.Recorder, error) {
	f.out = out
	f.fr = obs.FileOutputs(f.Metrics, f.Events)
	if f.Serve != "" {
		if f.fr.Recorder == nil {
			f.fr.Recorder = obs.NewRecorder(obs.NewRegistry(), nil)
		}
		srv, err := Start(Config{Addr: f.Serve, Registry: f.fr.Registry()})
		if err != nil {
			return nil, err
		}
		f.srv = srv
		fmt.Fprintf(out, "telemetry: serving on http://%s\n", srv.Addr())
	}
	stop, err := prof.Start(f.CPUProfile, f.MemProfile, f.fr.Recorder)
	if err != nil {
		if f.srv != nil {
			_ = f.srv.Close()
		}
		return nil, err
	}
	f.stopProf = stop
	return f.fr.Recorder, nil
}

// Finish ends a started run whose own outcome is runErr: it stops the
// profiles, writes the -metrics/-events artifacts, lingers when the run
// and every step succeeded, and closes the server. It returns the first
// error among runErr and its own steps. Finish is idempotent: the CLIs
// also defer Finish(nil), which does nothing after the explicit call and
// still writes the profiles if the run panics.
func (f *Flags) Finish(runErr error) error {
	stop := f.stopProf
	if stop == nil {
		return runErr
	}
	f.stopProf = nil
	err := runErr
	if perr := stop(); perr != nil && err == nil {
		err = perr
	}
	if ferr := f.fr.Flush(); ferr != nil && err == nil {
		err = ferr
	}
	if f.srv != nil && err == nil && f.Linger > 0 {
		// Hold the endpoints open after a clean run so an external scraper
		// polling the announcement always reaches the final state.
		fmt.Fprintf(f.out, "telemetry: lingering %s before exit\n", f.Linger)
		time.Sleep(f.Linger)
	}
	if f.srv != nil {
		_ = f.srv.Close()
	}
	return err
}
