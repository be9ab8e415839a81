package main

import (
	"strings"
	"testing"
)

// TestValidateRefusesIgnoredFlags runs the validation over every flag a
// serve run would silently ignore: each must be refused with a message
// naming the flag.
func TestValidateRefusesIgnoredFlags(t *testing.T) {
	for _, tc := range []struct {
		args string
		flag string // the flag the refusal must name
	}{
		{"-scenario s.yaml -pace 60", "-pace"},
		{"-scenario s.yaml -pace 0", "-pace"},
		{"-scenario s.yaml -linger 30s", "-linger"},
		{"-scenario s.yaml -http= -linger 30s", "-linger"},
		{"-scenario s.yaml -tail-q 0.5", "-tail-q"},
		{"-scenario s.yaml -journeys -tail=false -tail-q 0.9", "-tail-q"},
		{"-scenario s.yaml -format yaml", "yaml"},
		{"-format json", "-scenario"},
	} {
		o, err := parseFlags(strings.Fields(tc.args))
		if err != nil {
			t.Fatalf("%s: parse: %v", tc.args, err)
		}
		err = o.validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.args)
		} else if !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("%s: message %q does not name %s", tc.args, err, tc.flag)
		}
	}
}

// TestValidateAcceptsHonouredFlags keeps the validation from refusing a
// flag the run reads.
func TestValidateAcceptsHonouredFlags(t *testing.T) {
	for _, args := range []string{
		"-scenario s.yaml",
		"-scenario s.yaml -format json -functional -metrics m.prom -records r.json -stats",
		"-scenario s.yaml -http 127.0.0.1:0 -pace 120 -linger 30s",
		"-scenario s.yaml -http 127.0.0.1:0",
		"-scenario s.yaml -journeys -tail -tail-q 0.5 -journeys-out j.json -trace-out t.json",
		"-scenario s.yaml -alerts a.json -windows w.json",
	} {
		o, err := parseFlags(strings.Fields(args))
		if err != nil {
			t.Fatalf("%s: parse: %v", args, err)
		}
		if err := o.validate(); err != nil {
			t.Errorf("%s: refused: %v", args, err)
		}
	}
}
