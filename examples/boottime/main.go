// Boot-time attack walk-through (Section IV-A, Figure 2) with a packet-level
// view of the poisoning: the attacker plants a spoofed second fragment every
// 30 seconds; when the victim's resolver queries the nameserver, the real
// first fragment reassembles with the planted one and the malicious record
// enters the cache before the NTP client boots.
package main

import (
	"fmt"
	"log"
	"time"

	"dnstime"
	"dnstime/internal/ntpclient"
)

func main() {
	for _, prof := range []ntpclient.Profile{
		dnstime.ProfileNTPd,
		dnstime.ProfileSystemd,
		dnstime.ProfileNtpdate,
	} {
		res, err := dnstime.RunBootTimeAttack(prof, dnstime.LabConfig{Seed: 7})
		if err != nil {
			log.Fatalf("%s: %v", prof.Name, err)
		}
		fmt.Printf("%-18s poisoned=%-5t shifted=%-5t offset=%-10v time-to-shift=%v\n",
			res.Profile, res.Poisoned, res.Shifted, res.ClockOffset, res.TimeToShift.Round(time.Second))
	}

	// Show the low attack volume of the §IV-A planting loop: one round
	// every 30 s, so 5 per 150-second pool-record TTL window. RunFor
	// includes the window's closing instant, so it also counts the round
	// at 150 s.
	lab := dnstime.MustNewLab(dnstime.LabConfig{Seed: 7})
	campaign := lab.StartPoisonCampaign(30*time.Second, 0)
	lab.Clock.RunFor(150 * time.Second)
	campaign.Stop()
	fmt.Printf("\nplanting loop: %d rounds, %d spoofed packets per 150 s TTL window\n",
		campaign.Rounds, lab.Eve.InjectedPackets)
}
