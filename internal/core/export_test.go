package core

import "repro/internal/trace"

// Figure9Events returns the trace of Figure 9's timed read or write.
func Figure9Events(isWrite bool) ([]trace.Event, error) {
	s, _, _, err := figure9Run(isWrite)
	if err != nil {
		return nil, err
	}
	return s.Recorder.Events, nil
}
