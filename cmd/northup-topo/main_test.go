package main

import (
	"strings"
	"testing"
)

// TestValidateRefusesCacheFlags runs each cache flag combination the
// outline would misread or ignore: each must be refused with a message
// naming the flag, as northup-run refuses it.
func TestValidateRefusesCacheFlags(t *testing.T) {
	for _, tc := range []struct {
		args string
		flag string // the flag the refusal must name
	}{
		{"-preset apu -cache -cache-share 5", "-cache-share 5"},
		{"-preset apu -cache -cache-share -1", "-cache-share -1"},
		{"-preset apu -cache -cache-share NaN", "-cache-share NaN"},
		{"-preset apu -cache-share -1", "-cache-share -1"},
		{"-preset apu -cache -cache-mib -5", "-cache-mib -5"},
		{"-preset apu -cache-mib -5", "-cache-mib -5"},
		{"-preset apu -cache-mib 8 -prefetch", "-cache-mib 8"},
		{"-preset apu -cache-share 0.25", "-cache-share 0.25"},
		{"-preset apu -prefetch", "-prefetch"},
		{"-preset apu -cache -dot", "-cache"},
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

// TestValidateAcceptsCacheFlags keeps the rules from refusing what the
// outline prints: the cache flags with -cache, and zero values meaning the
// defaults.
func TestValidateAcceptsCacheFlags(t *testing.T) {
	for _, args := range []string{
		"-preset apu",
		"-preset apu -dot",
		"-preset apu -cache",
		"-preset apu -cache -cache-mib 64 -prefetch",
		"-preset apu -cache -cache-share 1",
		"-preset apu -cache -cache-share 0 -cache-mib 0",
	} {
		o, err := parseFlags(strings.Fields(args))
		if err == nil {
			err = o.validate()
		}
		if err != nil {
			t.Errorf("%s: %v", args, err)
		}
	}
}

// TestValidateRefusesOverflowingCacheMiB: a -cache-mib whose bytes do not
// fit in int64 is refused naming the flag, where the shift to bytes used to
// wrap it to another capacity; the largest size that fits passes.
func TestValidateRefusesOverflowingCacheMiB(t *testing.T) {
	for _, tc := range []struct {
		mib    string
		refuse bool
	}{
		{"9000000000000", true},
		{"8796093022208", true},
		{"9223372036854775807", true},
		{"8796093022207", false},
		{"0", false},
	} {
		args := "-preset apu -cache -cache-mib " + tc.mib
		o, err := parseFlags(strings.Fields(args))
		if err != nil {
			t.Fatalf("%s: parse: %v", args, err)
		}
		err = o.validate()
		switch {
		case tc.refuse && (err == nil || !strings.HasPrefix(err.Error(), "-cache-mib "+tc.mib+":")):
			t.Errorf("%s: err = %v, want a refusal naming -cache-mib", args, err)
		case !tc.refuse && err != nil:
			t.Errorf("%s: refused: %v", args, err)
		}
	}
}
