switched transformer with rectified output
.model dsw d(is=1e-12 n=1.1 tt=5n cj0=5p)
.model drive sw(ron=0.2 roff=10meg vt=0.9 dv=0.1)
VIN vin 0 DC 5
VCTL ctl 0 PULSE(0 1.8 0.2u 50n 50n 2u 5u)
L1 vin sw1 100u
L2 sec 0 400u
K1 L1 L2 0.95
S1 sw1 0 ctl 0 drive
* RC snubber clamps the leakage spike when the switch opens
RSN sw1 sn 100
CSN sn 0 1n
D1 sec out dsw
CO out 0 1u
RO out 0 1k
.tran 0.1u 40u
.end
