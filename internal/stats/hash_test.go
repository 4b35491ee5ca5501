package stats

import "testing"

// TestHashVectors pins the shared mixer and string hash to published
// values: the first SplitMix64 output from state 0 and the FNV-1a test
// vectors. Ring placement, fault schedules, trace IDs and sketch rows all
// derive from these bits.
func TestHashVectors(t *testing.T) {
	if got := Mix64(0 + Golden); got != 0xe220a8397b1dcdaf {
		t.Errorf("Mix64(Golden) = %#x, want 0xe220a8397b1dcdaf", got)
	}
	for _, tc := range []struct {
		in   string
		want uint64
	}{
		{"", 0xcbf29ce484222325},
		{"a", 0xaf63dc4c8601ec8c},
		{"foobar", 0x85944171f73967e8},
	} {
		if got := FNV1a(tc.in); got != tc.want {
			t.Errorf("FNV1a(%q) = %#x, want %#x", tc.in, got, tc.want)
		}
	}
}
