package core

// LandIdx exposes the shell's reverse map to the external tests that
// check what consecutive epochs of a maintained index share.
func (sh *Shell) LandIdx() []int16 { return sh.landIdx }
